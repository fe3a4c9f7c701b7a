"""The host-speed meter: readings scale the time, probes are left out.

The blocks busy-wait for a fixed wall time and the probe is faked, so
the expected scaled time is known whatever the host's speed.
"""

import time

import simwork

BLOCK_S = 0.3


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class FakeProbe:
    def __init__(self, reading_ms: float, cost_s: float) -> None:
        self.reading_ms = reading_ms
        self.cost_s = cost_s
        self.calls = 0

    def __call__(self, iterations: int = 200_000) -> float:
        self.calls += 1
        busy(self.cost_s)
        return self.reading_ms


def metered(monkeypatch, probe: FakeProbe) -> simwork.SpeedMeter:
    monkeypatch.setattr(simwork, "host_probe", probe)
    meter = simwork.SpeedMeter()
    with meter:
        busy(BLOCK_S)
    return meter


def test_samples_are_taken_while_the_block_runs(monkeypatch):
    probe = FakeProbe(simwork.REFERENCE_SAMPLE_MS, 0.0)
    meter = metered(monkeypatch, probe)
    # One before, one after, and about one per period in between.
    assert len(meter.readings) == probe.calls
    assert probe.calls >= 2 + BLOCK_S / simwork.SAMPLE_PERIOD_S / 2


def test_probe_time_is_left_out(monkeypatch):
    # Each sample costs 10 ms of a 25 ms period.
    probe = FakeProbe(simwork.REFERENCE_SAMPLE_MS, 0.010)
    meter = metered(monkeypatch, probe)
    inside = probe.calls - 2
    assert inside >= 4
    expected = BLOCK_S - inside * probe.cost_s
    assert abs(meter.seconds - expected) < 0.004 * inside + 0.002


def test_a_slow_reading_scales_the_time_down(monkeypatch):
    probe = FakeProbe(2 * simwork.REFERENCE_SAMPLE_MS, 0.0)
    meter = metered(monkeypatch, probe)
    assert abs(meter.seconds - BLOCK_S / 2) < 0.01
