"""The open-loop generator and the percentile helper."""

import asyncio
import os
import time

import openloop
from openloop import connection_limit, percentile, run_open_loop


class FakeClient:
    """Answers after ``service_s``; item ``stall_at`` takes ``stall_s``."""

    def __init__(self, service_s=0.001, stall_at=None, stall_s=0.0):
        self.service_s = service_s
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.busy = False

    async def handle(self, item):
        assert not self.busy, "two requests on one connection at once"
        self.busy = True
        try:
            stall = self.stall_s if item == self.stall_at else self.service_s
            await asyncio.sleep(stall)
        finally:
            self.busy = False
        return item


def every(rate, count):
    return [(i / rate, i) for i in range(count)]


def run(schedule, clients, handle=None):
    async def default(client, item):
        return await client.handle(item)

    return asyncio.run(
        asyncio.wait_for(
            run_open_loop(schedule, clients, handle or default), timeout=30
        )
    )


def test_a_stall_delays_later_requests_timed_from_their_due_time():
    client = FakeClient(stall_at=10, stall_s=0.2)
    report = run(every(200, 60), [client])
    by_item = {s.outcome: s for s in report.samples}
    assert len(by_item) == 60
    after = by_item[12]  # due 10 ms after the stalled request started
    assert after.latency > 0.15
    assert after.wait > 0.15  # it queued for the one connection
    assert after.done - after.got < 0.05  # its own service was quick
    assert by_item[5].latency < 0.05


def test_generator_lateness_is_reported():
    async def blocking(client, item):
        if item == 5:
            time.sleep(0.1)  # blocks the loop: later sends go out late
        return await client.handle(item)

    report = run(every(500, 40), [FakeClient()], blocking)
    assert len(report.lags) == 40
    assert max(report.lags) > 0.05
    assert min(report.lags) < 0.01


def test_connections_never_exceed_nproc(monkeypatch):
    assert connection_limit(10_000) <= (os.cpu_count() or 1)
    monkeypatch.setattr(openloop.os, "cpu_count", lambda: 2)
    assert connection_limit(64) == 2
    assert connection_limit(1) == 1
    clients = [FakeClient(service_s=0.01) for _ in range(connection_limit(64))]
    in_flight = 0
    peak = 0

    async def counted(client, item):
        nonlocal in_flight, peak
        in_flight += 1
        peak = max(peak, in_flight)
        try:
            return await client.handle(item)
        finally:
            in_flight -= 1

    report = run(every(1000, 50), clients, counted)
    assert len(clients) == 2
    assert peak == 2
    assert len(report.samples) == 50


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile([], 0.99) == (None, 0)
    values = list(range(1, 1001))
    assert percentile(values, 0.99) == (990, 1000)  # 10 samples beyond
    assert percentile(values[:999], 0.99) == (None, 999)
    assert percentile(values[:100], 0.9) == (90, 100)
    assert percentile(values[:100], 0.95) == (None, 100)
    assert percentile([3.0], 0.5) == (3.0, 1)
