"""Simulation workloads: fixed point sets run serially in one warm process.

Run as a child of ``run.py``::

    python3 perfbench/simwork.py --workload paper8p --seconds 30 \
        --trace 0 --cache-dir DIR

The child imports ``repro`` and every app module its workload names
under a :class:`SpeedMeter`, prints ``READY`` with the meter's scale
factor and probe time (the parent times set-up up to that line and
scales it), runs its passes, and prints one JSON object as its last stdout line.  Every
point result is checked against the recorded identity oracle
(``oracle.json``).  With ``--setup-only`` it exits after ``READY``;
with ``--cold-only`` it exits after the cold fill.  Untraced times are
scaled to a reference host speed (see :class:`SpeedMeter`).

Tracing (``--trace 1``) happens only here, from the outside: a
profiler around whole passes, and wrappers installed on public
functions (``Engine.run``, ``SharedArray`` access methods, the diff
functions).  Nothing under ``src/`` is instrumented.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import types
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_PATH = os.path.join(HERE, "oracle.json")

#: Untraced passes measured after the cold fill, at the least.
MIN_PASSES = 2

#: Cold fills an untraced run adds in fresh processes after the warm
#: one, and the warm passes that must still fit beside any of them.
EXTRA_COLD_FILLS = 2
MIN_WARM_PASSES = 3

#: The span track: passes, points and their phases nest on one track.
TRACK = "simulation"

#: RunResult counters reported per pass (``core.<name>``).
CORE_COUNTERS = (
    "read_faults",
    "write_faults",
    "page_transfers",
    "page_fetches",
    "twins_created",
    "diffs_created",
    "diffs_applied",
    "write_notices_sent",
    "prefetches",
    "home_migrations",
)


@dataclass(frozen=True)
class Point:
    app: str
    variant: str
    nprocs: int
    overrides: Dict[str, str] = field(default_factory=dict)

    @property
    def key(self) -> str:
        base = f"{self.app}/{self.variant}/{self.nprocs}p"
        if not self.overrides:
            return base
        knobs = ",".join(f"{k}={v}" for k, v in sorted(self.overrides.items()))
        return f"{base}[{knobs}]"


_POLICY = {"network": "rdma", "granularity": "block256", "prefetch": "seq"}

#: The simulation workloads.  Every point runs its app's ``small`` input.
WORKLOADS: Dict[str, List[Point]] = {
    # The Figure-5 slice: three paper apps x the two paper protocols at
    # 8p on memch with the default policy triple.
    "paper8p": [
        Point(app, variant, 8)
        for app in ("gauss", "lu", "sor")
        for variant in ("csm_poll", "tmk_mc_poll")
    ],
    # Past the paper: large clusters (sharded queue, hierarchical
    # barriers, directory sharding), one-sided rdma reads, and the
    # sharing-policy layer (sub-page units, prefetch, home migration).
    # Cashmere runs dynamic homing: at 256 B units on irreg it migrates
    # homes, while HLRC's dynamic homing migrates none.
    "beyond": [
        Point("sor", "csm_poll", 128),
        Point("sor", "tmk_mc_poll", 64),
        Point("em3d", "hlrc_poll", 64, {"network": "rdma"}),
        Point("irreg", "csm_poll", 8, dict(_POLICY, homing="dynamic")),
        Point("irreg", "tmk_mc_poll", 8, dict(_POLICY, homing="first-touch")),
        Point("irreg", "hlrc_poll", 8, dict(_POLICY, homing="dynamic")),
    ],
    # App compute dominates: barnes's force walk and water's kernels.
    "compute": [
        Point("barnes", "hlrc_poll", 8),
        Point("water", "csm_poll", 8),
        Point("water", "tmk_mc_poll", 8),
    ],
}


def run_point(point: Point, cache=None):
    from repro import api

    return api.run_point(
        point.app,
        point.variant,
        point.nprocs,
        scale="small",
        cache=cache,
        **point.overrides,
    )


# -- identity oracle ---------------------------------------------------


def values_digest(values: Any) -> str:
    """SHA-256 over a canonical encoding of the workers' return values."""
    import numpy as np

    h = hashlib.sha256()

    def feed(value: Any) -> None:
        if isinstance(value, np.ndarray):
            h.update(f"A{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, np.generic):
            h.update(f"S{value.dtype.str}".encode())
            h.update(value.tobytes())
        elif isinstance(value, (list, tuple)):
            h.update(f"L{len(value)}".encode())
            for item in value:
                feed(item)
        elif isinstance(value, dict):
            h.update(f"D{len(value)}".encode())
            for key in sorted(value, key=repr):
                feed(key)
                feed(value[key])
        else:
            h.update(f"P{type(value).__name__}:{value!r}".encode())

    feed(values)
    return h.hexdigest()


def fingerprint(result) -> Dict[str, Any]:
    """What the oracle records for one point result."""
    return {
        "exec_time": result.exec_time,
        "network_bytes": int(result.network_bytes),
        "counters": {
            name: int(count)
            for name, count in sorted(result.stats.aggregate_counters().items())
            if count
        },
        "values_sha256": values_digest(result.values),
    }


def load_oracle() -> Dict[str, Dict[str, Any]]:
    with open(ORACLE_PATH) as stream:
        return json.load(stream)["points"]


def oracle_mismatch(point: Point, result, oracle: Dict) -> Optional[str]:
    expected = oracle.get(point.key)
    if expected is None:
        return f"{point.key}: no oracle entry"
    got = fingerprint(result)
    wrong = [name for name in expected if got.get(name) != expected[name]]
    return f"{point.key}: {', '.join(wrong)} differ" if wrong else None


# -- host-speed probe --------------------------------------------------


#: The speed samples of :class:`SpeedMeter`: a probe of this many
#: iterations every SAMPLE_PERIOD_S of wall time, and about what it
#: reads on a 2.1 GHz Xeon VM in its fast state, the speed untraced
#: times are scaled to.
SAMPLE_ITERATIONS = 10_000
SAMPLE_PERIOD_S = 0.025
REFERENCE_SAMPLE_MS = 0.8


def host_probe(iterations: int = 200_000) -> float:
    """Milliseconds for a fixed pure-Python loop; drift in it is drift
    in host speed, not in the code under test."""
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return (time.perf_counter() - started) * 1e3


class SpeedMeter:
    """Times a block of code in seconds at the reference host speed.

    The host's speed drifts by up to 2.5x, flipping between a fast and a
    slow state many times a second, and the simulation's speed follows
    it.  So the meter samples the speed while the block runs: SIGALRM
    runs the probe every SAMPLE_PERIOD_S of wall time, and the probe
    also runs just before and just after the block.  The host does work
    at a rate inversely proportional to the probe's reading, so the
    block's time less the samples' own, times REFERENCE_SAMPLE_MS, times
    the mean of 1 / reading, is what the block would take at the
    reference speed.  The probe runs no ``repro`` code, so a change to
    the code under test moves the scaled time as much as the raw one.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []
        self.spent = 0.0
        self.started = 0.0
        self.elapsed = 0.0
        self.seconds = 0.0

    def _sample(self, *_signal) -> None:
        started = time.perf_counter()
        self.readings.append(host_probe(SAMPLE_ITERATIONS))
        self.spent += time.perf_counter() - started

    def __enter__(self) -> "SpeedMeter":
        self.readings = [host_probe(SAMPLE_ITERATIONS)]
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        # Disarm first: a sample taken before the clock is read falls
        # inside the block's time and is subtracted from it.
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self.started - self.spent
        self.readings.append(host_probe(SAMPLE_ITERATIONS))
        rate = statistics.fmean(1.0 / reading for reading in self.readings)
        self.seconds = self.elapsed * REFERENCE_SAMPLE_MS * rate


# -- tracing from the outside ------------------------------------------


class Tracing:
    """Wrappers installed on public ``repro`` functions for a traced run.

    The ``Engine.run`` wrapper stays on for the whole run: it costs one
    call per point and gives the span tree its leaves.  The counting
    wrappers (access methods, diff functions) add a call per access, so
    :meth:`counting` installs them for one pass and removes them again,
    keeping them out of the profiled passes.
    """

    ACCESS_METHODS = (
        "try_read", "rows", "region_view", "try_write", "read_range",
        "write_range", "get", "put", "read_rows", "write_rows",
        "read_all", "read_region", "write_region",
    )
    DIFF_FUNCTIONS = ("make_diff", "apply_diff", "apply_diff_versioned")
    PROTOCOL_MODULES = (
        "repro.core.cashmere.protocol",
        "repro.core.treadmarks.protocol",
        "repro.core.hlrc.protocol",
    )

    def __init__(self, spans) -> None:
        from repro.sim.engine import Engine

        self.spans = spans
        self.events = 0
        self.access_calls = 0
        self.access_hot = 0
        self.diff_calls = 0
        self.point_span: Optional[int] = None
        self.point_group: Optional[str] = None
        self.point_started: Optional[float] = None
        Engine.run = self._engine_run(Engine.run)

    def _engine_run(self, original):
        tracing = self

        def run(engine, until=None):
            before = engine.events_fired
            started = time.perf_counter()
            try:
                return original(engine, until)
            finally:
                fired = engine.events_fired - before
                tracing.events += fired
                tracing._engine_span(started, time.perf_counter(), fired)

        return run

    def _engine_span(self, started: float, ended: float, fired: int) -> None:
        if self.point_span is None:
            return
        if self.point_started is not None:
            self.spans.add(
                "setup", self.point_started, started, track=TRACK,
                group=self.point_group, parent=self.point_span,
            )
            self.point_started = None
        self.spans.add(
            "Engine.run", started, ended, track=TRACK,
            group=self.point_group, parent=self.point_span, events=fired,
        )

    @contextmanager
    def counting(self):
        """Count events, access calls and diff calls inside the block."""
        from repro.core.runtime import shared
        from repro.memory import diff

        self.events = 0
        for name in self.PROTOCOL_MODULES:
            importlib.import_module(name)
        patched = []  # (owner, name, original)
        for name in self.ACCESS_METHODS:
            method = getattr(shared.SharedArray, name)
            patched.append((shared.SharedArray, name, method))
            setattr(shared.SharedArray, name,
                    self._access(method, shared.__file__))
        for name in self.DIFF_FUNCTIONS:
            original = getattr(diff, name)
            wrapped = self._diff(original)
            for module_name, module in list(sys.modules.items()):
                if (module_name.startswith("repro") and module is not None
                        and getattr(module, name, None) is original):
                    patched.append((module, name, original))
                    setattr(module, name, wrapped)
        try:
            yield self
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)

    def _diff(self, fn):
        tracing = self

        def counted(*args, **kwargs):
            tracing.diff_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _access(self, method, shared_file: str):
        tracing = self

        def access(array, *args, **kwargs):
            result = method(array, *args, **kwargs)
            if sys._getframe(1).f_code.co_filename == shared_file:
                return result  # nested inside another access method
            tracing.access_calls += 1
            if isinstance(result, types.GeneratorType):
                return tracing._watch(result)
            if result is None or result is False:
                return result  # cold probe: the caller will fault
            tracing.access_hot += 1
            return result

        return access

    def _watch(self, gen):
        """Forward ``gen``; count it hot if it finishes without yielding."""
        try:
            request = gen.send(None)
        except StopIteration as stop:
            self.access_hot += 1
            return stop.value
        while True:
            try:
                reply = yield request
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                try:
                    request = gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
            else:
                try:
                    request = gen.send(reply)
                except StopIteration as stop:
                    return stop.value


# -- the passes --------------------------------------------------------


class Runner:
    """Runs passes over a workload's points.  With ``scale`` (untraced
    runs) each point is timed by a :class:`SpeedMeter`."""

    def __init__(self, name: str, tracing: Optional[Tracing], spans,
                 scale: bool = False) -> None:
        self.name = name
        self.points = WORKLOADS[name]
        self.oracle = load_oracle()
        self.tracing = tracing
        self.spans = spans
        self.meter = SpeedMeter() if scale else None
        self.attempted = 0
        self.failures: List[str] = []
        self.passes = 0

    def one_pass(self, cache=None, latencies=None, profile=None):
        """Run every point once, appending each point's milliseconds to
        ``latencies[point.key]``.  Returns (elapsed, seconds, results):
        the pass's wall time, and its time as measured (the sum of the
        scaled point times with ``scale``, else the wall time)."""
        self.passes += 1
        label = f"{self.name} pass {self.passes}"
        results = []
        scaled = 0.0
        started = time.perf_counter()
        pass_span = self.spans.add(label, started, started, track=TRACK,
                                   group=label)
        if profile is not None:
            profile.enable()
        for point in self.points:
            group = f"{label}: {point.key}"
            point_started = time.perf_counter()
            if self.tracing is not None:
                self.tracing.point_span = self.spans.add(
                    point.key, point_started, point_started,
                    track=TRACK, group=group, parent=pass_span,
                )
                self.tracing.point_group = group
                self.tracing.point_started = point_started
            self.attempted += 1
            try:
                with self.meter or nullcontext():
                    result = run_point(point, cache)
            except Exception as exc:  # a failed point is counted, not fatal
                self.failures.append(f"{point.key}: raised {exc!r}")
                continue
            point_ended = time.perf_counter()
            if self.tracing is not None:
                self.spans.finish(self.tracing.point_span, point_ended)
            if self.meter is not None:
                seconds = self.meter.seconds
            else:
                seconds = point_ended - point_started
            scaled += seconds
            if latencies is not None:
                latencies.setdefault(point.key, []).append(seconds * 1e3)
            results.append((point, result))
        if profile is not None:
            profile.disable()
        wall = time.perf_counter() - started
        self.spans.finish(pass_span, started + wall)
        for point, result in results:
            mismatch = oracle_mismatch(point, result, self.oracle)
            if mismatch:
                self.failures.append(mismatch)
        return wall, (scaled if self.meter is not None else wall), results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def pass_counters(results) -> Dict[str, int]:
    out: Dict[str, int] = {f"core.{name}": 0 for name in CORE_COUNTERS}
    out.update({"cluster.messages": 0, "cluster.network_bytes": 0,
                "cluster.rdma_reads": 0})
    for _point, result in results:
        counters = result.stats.aggregate_counters()
        for name in CORE_COUNTERS:
            out[f"core.{name}"] += int(counters.get(name, 0))
        out["cluster.messages"] += int(counters.get("messages", 0))
        out["cluster.rdma_reads"] += int(counters.get("rdma_reads", 0))
        out["cluster.network_bytes"] += int(result.network_bytes)
    return out


def measure(name: str, seconds: float, trace: bool, cache_dir: str,
            cold_only: bool = False) -> Dict:
    """The cold fill, then (unless ``cold_only``) the warm passes, or
    with ``trace`` the counting, untraced and profiled passes."""
    from repro.harness.cache import ResultCache
    from spans import Spans

    spans = Spans(enabled=trace)
    tracing = Tracing(spans) if trace else None
    runner = Runner(name, tracing, spans, scale=not trace)
    begin = time.perf_counter()
    report: Dict[str, Any] = {"probe_ms": [host_probe()], "walls": [],
                              "point_ms": {}, "cold_point_ms": {}}
    cache = ResultCache(cache_dir=Path(cache_dir))
    cold, report["cold_fill_s"], cold_results = runner.one_pass(
        cache=cache, latencies=report["cold_point_ms"]
    )
    report["cache_stores"] = cache.stats.stores
    report["counters"] = pass_counters(cold_results)
    if trace:
        traced_passes(runner, tracing, report)
    elif not cold_only:
        # A warm pass takes about as long as the cold fill.
        spare = begin + seconds - time.perf_counter() - MIN_WARM_PASSES * cold
        extra = max(0, min(EXTRA_COLD_FILLS, int(spare // cold)))
        report["extra_cold_fills"] = extra
        warm_passes(runner, report, begin + seconds - extra * cold)
    report.update(attempted=runner.attempted, failures=runner.failures)
    return report


def warm_passes(runner: Runner, report: Dict, deadline: float) -> None:
    """Untraced passes until the next one would end past ``deadline``."""
    walls = report["walls"]
    while True:
        elapsed, seconds, _ = runner.one_pass(latencies=report["point_ms"])
        walls.append(seconds)
        report.setdefault("elapsed", []).append(elapsed)
        if len(walls) == 1:
            # Resident memory creeps up from pass to pass, so its
            # high-water mark is read after a fixed amount of work: the
            # cold fill and one warm pass.
            report["peak_rss_mb"] = peak_rss_mb()
        if (len(walls) >= MIN_PASSES
                and time.perf_counter() + elapsed > deadline):
            return


def traced_passes(runner: Runner, tracing: Tracing, report: Dict) -> None:
    """A counting pass, two untraced passes and one profiled pass."""
    from layers import LayerMap, repro_package_dir, self_times

    with tracing.counting():
        runner.one_pass()
    report["events"] = tracing.events
    report["access_calls"] = tracing.access_calls
    report["access_hot"] = tracing.access_hot
    report["diff_calls"] = tracing.diff_calls
    for _ in range(2):
        report["probe_ms"].append(host_probe())
        report["walls"].append(runner.one_pass()[1])
    report["probe_ms"].append(host_probe())
    profile = cProfile.Profile()
    report["traced_wall"] = runner.one_pass(profile=profile)[1]
    report["self_s"] = self_times(profile, LayerMap(repro_package_dir()))
    report["spans"] = runner.spans.records


def setup(name: str) -> None:
    """Import ``repro`` and every app module the workload names."""
    from repro.apps import registry
    import repro.api  # noqa: F401

    for app in sorted({point.app for point in WORKLOADS[name]}):
        registry.load(app)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-dir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cold-only", action="store_true",
                        help="stop after the cold fill")
    args = parser.parse_args(argv)
    meter = SpeedMeter()
    started = time.perf_counter()
    with meter:
        setup(args.workload)
    probing = time.perf_counter() - started - meter.elapsed
    print(f"READY {meter.seconds / meter.elapsed} {probing}", flush=True)
    if args.setup_only:
        return 0
    report = measure(args.workload, args.seconds, bool(args.trace),
                     args.cache_dir, args.cold_only)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
