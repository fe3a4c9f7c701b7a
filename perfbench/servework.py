"""The ``serve`` workload: ``repro-dsm serve --jobs 1`` under open-loop load.

The server runs as its own process with a fresh cache directory; this
process is the only client, over at most ``nproc`` keep-alive
:class:`~repro.serving.client.ServingClient` connections.  Phases:

1. *cold*: ``loadgen.default_point_set()`` sent two requests at a time
   so the computed, coalesced and batching paths all run (see
   :func:`cold_order`); then each point once more under an equivalent
   but differently spelled body, which only the on-disk cache answers.
   The server is started five times, and each start runs this phase;
2. *rounds*, five of them, each with a fifth of the following, so
   every metric samples the whole run: the *passes*, the warm point
   set with one request per point in turn; the *open loop*, zipf(1.2)
   traffic over the warm set with every 25th request the invalid
   body, 1500 requests in all with Poisson arrivals at a low and at a
   high rate, in blocks of 100; and 10 bursts in all of 1000 requests each, sent at once,
   whose median completion rate is the saturated throughput;
3. in traced runs, profiled warm passes and a rate ladder for the
   highest rate whose p99 stays within 20 ms.

The load is a fixed number of requests, so the workload does not use
``--seconds``; it takes about 25 s (traced: about 45 s).  Untraced runs
scale every time but set-up to the reference host speed (see
:func:`_drive`).

Served results are byte-compared with direct ``api.run_point`` runs
(``loadgen.verify_against_direct``); each point must have exactly one
digest, and the invalid body must never be served.
"""

from __future__ import annotations

import asyncio
import cProfile
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from openloop import (
    PhaseReport,
    connection_limit,
    percentile,
    poisson_offsets,
    run_open_loop,
)
from simwork import (
    REFERENCE_SAMPLE_MS,
    SAMPLE_ITERATIONS,
    SpeedMeter,
    host_probe,
)

LOW_RATE = 200.0
HIGH_RATE = 400.0
#: Requests at each of the low and high rates, sent in blocks of
#: PACED_BLOCK with the host probed between blocks.
PHASE_REQUESTS = 1500
PACED_BLOCK = 100
#: Bursts, and the requests each sends at once, to measure the
#: saturated throughput (the median over the bursts).
BURSTS = 10
BURST_REQUESTS = 1000
#: Rounds that the warm passes, the paced phases and the bursts are
#: split into, in turn.
ROUNDS = 5
#: Requests per ladder rung: the fewest that support a p99.
BLOCK = 1000
#: Ladder rates (traced runs only), in steps of 1.5x until one misses
#: the latency limit, then bisected.
LADDER = tuple(round(300 * 1.5 ** k) for k in range(14))
BISECTIONS = 3
P99_LIMIT_S = 0.020
BAD_EVERY = 25
ZIPF_S = 1.2
CONNECTIONS = 2
SETUPS = 5
#: Short host probes taken before and after each timed stretch of an
#: untraced run, to scale it to the reference host speed.
SPEED_PROBES = 10
WALL_PASSES = 60
TIERS = ("hot", "cache", "coalesced", "computed", "negative")
_BANNER = re.compile(r"listening on http://([0-9.]+):(\d+)")


class Server:
    """One ``repro-dsm serve`` process started through ``serve_host.py``."""

    def __init__(self, here: str, env: Dict[str, str], cache_dir: str,
                 profile_path: Optional[str] = None) -> None:
        command = [sys.executable, os.path.join(here, "serve_host.py")]
        if profile_path is not None:
            command += ["--profile", profile_path]
        command += ["--", "serve", "--jobs", "1", "--host", "127.0.0.1",
                    "--port", "0", "--cache-dir", cache_dir]
        self.profile_path = profile_path
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.address: Optional[Tuple[str, int]] = None
        self.log: List[str] = []
        self._bound = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line.rstrip())
            match = _BANNER.search(line)
            if match and self.address is None:
                self.address = (match.group(1), int(match.group(2)))
                self._bound.set()
        self._bound.set()

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Seconds from spawn until ``/v1/healthz`` answers."""
        from repro.serving.client import ServingClient

        if not self._bound.wait(timeout) or self.address is None:
            raise RuntimeError("server did not start:\n" + "\n".join(self.log))

        async def probe() -> Dict[str, Any]:
            client = ServingClient(*self.address)
            try:
                return await client.healthz()
            finally:
                await client.close()

        health = asyncio.run(probe())
        if health.get("status") != "ok":
            raise RuntimeError(f"server unhealthy: {health}")
        return time.perf_counter() - self.started

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM not reported")

    def profiling(self, on: bool) -> None:
        """Start or stop the server's profiler (traced runs only)."""
        if self.profile_path is not None:
            self.proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
            time.sleep(0.1)  # let the handler run before load resumes

    def stop(self, timeout: float = 60.0) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout)


class Tracker:
    """Builds each request, classifies its tier and checks its result."""

    def __init__(self, points: List[Dict[str, Any]]) -> None:
        from repro.serving.loadgen import BAD_POINT

        self.points = points
        self.bad = BAD_POINT
        self.completed: set = set()
        self.bad_seen = False
        self.digests: Dict[int, set] = {}
        self.result_bytes: Dict[int, bytes] = {}
        self.served: Dict[int, int] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.connection_ids: Dict[int, int] = {}

    def new_server(self) -> None:
        """Forget which bodies were served: a fresh server has no hot tier."""
        self.completed.clear()
        self.bad_seen = False

    def body(self, kind: str, index: int) -> Dict[str, Any]:
        if kind == "bad":
            return dict(self.bad)
        if kind == "alt":
            # Same point, different body: misses the hot tier, which is
            # keyed by body, and hits the on-disk cache, keyed by spec.
            return dict(self.points[index], warm_start=True)
        return dict(self.points[index])

    async def handle(self, client, item: Tuple[str, int]) -> Dict[str, Any]:
        from repro.serving.codec import ServingError

        kind, index = item
        body = self.body(kind, index)
        conn = self.connection_ids.setdefault(id(client), len(self.connection_ids))
        self.attempted += 1
        try:
            payload = await client.resolve(body)
        except ServingError as exc:
            if kind == "bad" and exc.status == 400:
                tier = "negative" if self.bad_seen else "invalid"
                self.bad_seen = True
                return {"tier": tier, "ok": True, "conn": conn}
            self.fail(f"{kind} {index}: HTTP {exc.status}: {exc}")
            return {"tier": "error", "ok": False, "conn": conn}
        except Exception as exc:  # a failed request is counted, not fatal
            self.fail(f"{kind} {index}: {exc!r}")
            return {"tier": "error", "ok": False, "conn": conn}
        if kind == "bad":
            self.fail("the invalid request was served")
            return {"tier": "error", "ok": False, "conn": conn}
        key = json.dumps(body, sort_keys=True)
        tier = payload["source"]
        if tier == "cache":
            # The server answers from its in-memory tier once a body has
            # been served, and from disk before that.
            tier = "hot" if key in self.completed else "cache"
        self.completed.add(key)
        self.digests.setdefault(index, set()).add(payload["digest"])
        self.served[index] = self.served.get(index, 0) + 1
        if index not in self.result_bytes:
            self.result_bytes[index] = json.dumps(
                payload["result"], sort_keys=True, separators=(",", ":")
            ).encode()
        return {"tier": tier, "ok": True, "conn": conn}

    def fail(self, message: str, requests: int = 1) -> None:
        self.failures.append(message)
        self.failed += requests

    def verify(self) -> None:
        """Check served results; every request of a point whose result
        is wrong counts as failed."""
        from repro.serving.loadgen import verify_against_direct

        for index, seen in sorted(self.digests.items()):
            if len(seen) != 1:
                self.fail(f"point {index}: {len(seen)} digests",
                          self.served[index])
        identity = verify_against_direct(self.points, self.result_bytes)
        for point in identity["mismatches"]:
            index = self.points.index(point)
            self.fail(f"point {index}: differs from a direct run",
                      self.served[index])


def cold_order(n: int, rng: random.Random) -> List[int]:
    """The cold phase's request order over ``n`` points.

    Requests go out two at a time (one per connection).  In each group
    of three points the first is sent twice back to back, so the second
    copy coalesces onto the first; the other two go out together, so
    they land in one batch; then both are sent again, as warm repeats.
    """
    order = list(range(n))
    rng.shuffle(order)
    out: List[int] = []
    for k in range(0, n, 3):
        group = order[k:k + 3]
        out += [group[0]] * 2 + group[1:] + group[1:]
    return out


def zipf_schedule(rate: float, count: int, npoints: int, rng: random.Random,
                  position: int) -> Tuple[list, int]:
    """Poisson arrivals of zipf-chosen points (all at once when ``rate``
    is 0); every ``BAD_EVERY``-th request overall (counted from
    ``position``) is the invalid body."""
    from repro.serving.loadgen import zipf_weights

    weights = zipf_weights(npoints, ZIPF_S)
    offsets = poisson_offsets(rate, count, rng) if rate else [0.0] * count
    choices = rng.choices(range(npoints), weights=weights, k=count)
    schedule = []
    for offset, index in zip(offsets, choices):
        position += 1
        item = ("bad", -1) if position % BAD_EVERY == 0 else ("point", index)
        schedule.append((offset, item))
    return schedule, position


def p99(report: PhaseReport) -> float:
    value, n = percentile(report.latencies(), 0.99)
    if value is None:
        raise RuntimeError(f"{n} samples cannot support a p99")
    return value


def met(report: PhaseReport) -> bool:
    return p99(report) <= P99_LIMIT_S and not report.growing_backlog()


def max_rate(judged: List[Tuple[float, bool, float]]) -> float:
    """The highest rate meeting the p99 limit without a growing backlog.

    ``judged`` holds ``(rate, met, p99)`` per rate tried.  Between the
    lowest rate that missed and the highest rate below it that met the
    limit, the rate where p99 crosses the limit is interpolated.
    """
    judged = sorted(judged)
    missed = [j for j in judged if not j[1]]
    if not missed:
        return judged[-1][0]
    rate1, _, p1 = missed[0]
    below = [j for j in judged if j[1] and j[0] < rate1]
    if not below:
        return rate1 * P99_LIMIT_S / max(p1, P99_LIMIT_S)
    rate0, _, p0 = below[-1]
    if p1 <= max(p0, P99_LIMIT_S):
        return rate0  # missed on backlog alone: no crossing to place
    return rate0 + (rate1 - rate0) * (P99_LIMIT_S - p0) / (p1 - p0)


async def ladder(phase) -> float:
    """The highest rate whose p99 stays within the limit (see
    :func:`max_rate`), from a ladder of one-block rungs and bisection.
    A rung gets a second block only if its first missed the limit, and
    is met when either block met it."""
    judged = []

    async def rung(rate: float) -> bool:
        first = await phase(rate, BLOCK)
        attempts = [first] if met(first) else [first, await phase(rate, BLOCK)]
        ok = any(met(a) for a in attempts)
        judged.append((rate, ok, min(p99(a) for a in attempts)))
        return ok

    passed = 0.0
    for rate in LADDER:
        if not await rung(rate):
            break
        passed = rate
    for _ in range(BISECTIONS if passed else 0):
        middle = (passed * rate) ** 0.5
        if await rung(middle):
            passed = middle
        else:
            rate = middle
    return max_rate(judged)


async def _drive(server: Server, tracker: Tracker, rng: random.Random,
                 profile: Optional[cProfile.Profile],
                 full: bool, scale: bool) -> Dict[str, Any]:
    """The cold phase on a fresh server and, when ``full``, the warm
    passes and the open-loop phases after it.

    With ``scale``, each cold phase and burst is timed at the reference
    host speed by a :class:`~simwork.SpeedMeter`.  Each warm pass and
    paced phase is scaled the same way, but from probes taken only just
    before and just after it, so that no probe delays a timed request.
    """
    from repro.serving.client import ServingClient

    clients = [ServingClient(*server.address)
               for _ in range(connection_limit(CONNECTIONS))]
    n = len(tracker.points)
    tracker.new_server()
    out: Dict[str, Any] = {"probes": [host_probe()]}

    def profiling(on: bool) -> None:
        if profile is None:
            return
        if on:
            server.profiling(True)
            profile.enable()
        else:
            profile.disable()
            server.profiling(False)

    def readings() -> List[float]:
        count = SPEED_PROBES if scale else 0
        return [host_probe(SAMPLE_ITERATIONS) for _ in range(count)]

    def factor(before: List[float], after: List[float]) -> float:
        """Reference seconds per second between the two readings."""
        if not scale:
            return 1.0
        return REFERENCE_SAMPLE_MS * statistics.fmean(
            1.0 / reading for reading in before + after)

    async def metered(awaitable):
        """Await it; returns (its result, its seconds at the reference
        host speed, or as measured without ``scale``)."""
        if not scale:
            started = time.perf_counter()
            result = await awaitable
            return result, time.perf_counter() - started
        meter = SpeedMeter()
        with meter:
            result = await awaitable
        return result, meter.seconds

    async def warm_passes(count: int) -> List[float]:
        walls = []
        for _ in range(count):
            before = readings()
            begin = time.perf_counter()
            for i in range(n):
                await tracker.handle(clients[0], ("point", i))
            elapsed = time.perf_counter() - begin
            walls.append(elapsed * factor(before, readings()))
        return walls

    try:
        profiling(True)
        cold, out["cold_fill_s"] = await metered(run_open_loop(
            [(0.0, ("point", i)) for i in cold_order(n, rng)], clients,
            tracker.handle,
        ))
        alt = await run_open_loop([(0.0, ("alt", i)) for i in range(n)],
                                  clients, tracker.handle)
        out["cold"] = [cold, alt]
        profiling(False)
        if not full:
            return out

        position = 0
        reports: List[PhaseReport] = []

        def paced(rate: float, count: int):
            """The next ``count`` requests at ``rate``, not yet awaited."""
            nonlocal position
            out["probes"].append(host_probe())
            schedule, position = zipf_schedule(rate, count, n, rng, position)
            return run_open_loop(schedule, clients, tracker.handle, rate)

        async def phase(rate: float, count: int) -> PhaseReport:
            report = await paced(rate, count)
            reports.append(report)
            return report

        async def scaled_phase(rate: float, count: int):
            """A phase and its factor to the reference host speed."""
            before = readings()
            report = await phase(rate, count)
            return report, factor(before, readings())

        # Each round runs a share of the warm passes, of both paced
        # phases and of the bursts, so every metric samples the whole
        # run rather than one stretch of it.  The paced phases and the
        # ladder run unprofiled, so their tail latencies carry no
        # profiler cost; the bursts are profiled.
        walls: List[float] = []
        low: List[Tuple[PhaseReport, float]] = []
        high: List[Tuple[PhaseReport, float]] = []
        rates: List[float] = []
        for _ in range(ROUNDS):
            walls += await warm_passes(WALL_PASSES // ROUNDS)
            for rate, blocks in ((LOW_RATE, low), (HIGH_RATE, high)):
                for _ in range(PHASE_REQUESTS // ROUNDS // PACED_BLOCK):
                    blocks.append(await scaled_phase(rate, PACED_BLOCK))
            profiling(True)
            for _ in range(BURSTS // ROUNDS):
                burst, seconds = await metered(paced(0.0, BURST_REQUESTS))
                reports.append(burst)
                rates.append(len(burst.samples) / seconds)
            profiling(False)
        out["walls"] = walls
        for name, blocks in (("low", low), ("high", high)):
            out[name] = merged([report for report, _ in blocks])
            out[f"{name}_s"] = [latency * scaled for report, scaled in blocks
                                for latency in report.latencies()]
        out["burst_rps"] = statistics.median(rates)
        out["traced_walls"] = []
        if profile is not None:
            profiling(True)
            out["traced_walls"] = await warm_passes(WALL_PASSES // ROUNDS)
            profiling(False)
            out["max_rps_p99"] = await ladder(phase)
        out["open_loop"] = reports
        out["stats"] = await clients[0].stats()
        return out
    finally:
        for client in clients:
            await client.close()


def merged(reports: List[PhaseReport]) -> PhaseReport:
    """One phase's blocks, run at one rate, as a single report."""
    return PhaseReport(reports[0].rate,
                       [s for r in reports for s in r.samples],
                       [lag for r in reports for lag in r.lags])


def record_spans(spans, phases: Dict[str, List[PhaseReport]]) -> None:
    request = 0
    for name, reports in phases.items():
        for report in reports:
            for sample in report.samples:
                request += 1
                track = f"connection {sample.outcome['conn']}"
                tier = sample.outcome["tier"]
                parent = spans.add("request", sample.due, sample.done,
                                   track=track, group=request, tier=tier,
                                   phase=name, rate=report.rate)
                spans.add("wait", sample.due, sample.got, track=track,
                          group=request, parent=parent)
                spans.add("send", sample.got, sample.done, track=track,
                          group=request, parent=parent, tier=tier)


def _ms(value: Optional[float]) -> float:
    return 0.0 if value is None else value * 1e3


def run(here: str, env: Dict[str, str], work_dir: str, seed: int,
        trace: bool, spans) -> Dict[str, Any]:
    """Run the workload; returns the metric values of the run's mode
    (end-to-end, or per-layer with ``trace``) and the operation counts."""
    from layers import LayerMap, add_into, repro_package_dir, self_times
    from repro.serving.loadgen import default_point_set

    tracker = Tracker(default_point_set())
    rng = random.Random(seed)
    profile = cProfile.Profile() if trace else None
    setups: List[float] = []
    cold_fills: List[float] = []
    cold: List[PhaseReport] = []
    for attempt in range(SETUPS):
        # Every server starts from an empty cache, so each one gives a
        # set-up sample and a cold-fill sample; the last one goes on to
        # the warm and open-loop phases.
        last = attempt == SETUPS - 1
        server = Server(
            here, env, tempfile.mkdtemp(prefix="serve-cache-", dir=work_dir),
            os.path.join(work_dir, "server.prof") if trace and last else None,
        )
        try:
            setups.append(server.wait_ready())
            driven = asyncio.run(_drive(server, tracker, rng,
                                        profile if last else None, last,
                                        scale=not trace))
            cold_fills.append(driven["cold_fill_s"])
            cold += driven["cold"]
            if last:
                rss = server.peak_rss_mb()
        finally:
            server.stop()
    tracker.verify()
    phases = {"cold": cold, "open_loop": driven["open_loop"]}
    if spans.enabled:
        record_spans(spans, phases)

    if trace:
        layer_map = LayerMap(repro_package_dir())
        totals = self_times(profile, layer_map)
        add_into(totals, self_times(server.profile_path, layer_map))
        values = serving_layer_metrics(driven, phases, totals)
    else:
        values = {
            "wall_s": statistics.median(driven["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "cold_fill_s": statistics.median(cold_fills),
            "lat_p50_ms_low": _ms(percentile(driven["low_s"], 0.5)[0]),
            "lat_p50_ms_high": _ms(percentile(driven["high_s"], 0.5)[0]),
            "max_rps": driven["burst_rps"],
        }
    return {
        "values": values,
        "attempted": tracker.attempted,
        "failed": tracker.failed,
        "failures": tracker.failures,
        "samples": {
            "setups": len(setups),
            "passes": len(driven["walls"]),
            "rates": [round(r.rate) for r in driven["open_loop"]],
        },
    }


def serving_layer_metrics(driven: Dict[str, Any],
                          phases: Dict[str, List[PhaseReport]],
                          totals: Dict[str, float]) -> Dict[str, float]:
    stats = driven["stats"]
    serving = stats["serving"]
    http = stats["http"]
    batcher = stats["batcher"] or {}
    paced = (driven["low"], driven["high"])
    open_loop = [s for r in paced for s in r.samples]
    # Tier latencies leave out the burst and the ladder, whose queueing
    # is set by the load level rather than by the tier.
    samples = [s for r in phases["cold"] for s in r.samples] + open_loop
    lags = [lag for r in paced for lag in r.lags]
    walls, traced = driven["walls"], driven["traced_walls"]
    out: Dict[str, float] = {f"{name}.self_s": secs for name, secs in totals.items()}
    for name in ("hot_hits", "cache_hits", "coalesced", "computed",
                 "negative_hits", "rejected", "errors"):
        out[f"serving.{name}"] = serving[name]
    out["serving.hot_ratio"] = serving["hot_hits"] / max(1, serving["requests"])
    out["serving.batches"] = batcher.get("batches", 0)
    out["serving.largest_batch"] = batcher.get("largest_batch", 0)
    out["serving.conn_reuse_ratio"] = http["reused"] / max(1, http["requests"])
    out["serving.wait_ms_p50"] = _ms(percentile([s.wait for s in open_loop], 0.5)[0])
    out["serving.gen_lag_ms_p99"] = _ms(percentile(lags, 0.99)[0])
    out["serving.lat_p99_ms_low"] = _ms(p99(driven["low"]))
    out["serving.lat_p99_ms_high"] = _ms(p99(driven["high"]))
    out["serving.max_rps_p99"] = driven["max_rps_p99"]
    for tier in TIERS:
        lat = [s.latency for s in samples if s.outcome["tier"] == tier]
        out[f"serving.tier_p50_ms.{tier}"] = _ms(percentile(lat, 0.5)[0])
    out["harness.cache.stores"] = (stats["cache"] or {}).get("stats", {}).get("stores", 0)
    out["harness.warmup_excess_s"] = walls[0] - statistics.median(walls)
    out["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(walls)
    out["host.probe_ms"] = statistics.median(driven["probes"])
    return out
