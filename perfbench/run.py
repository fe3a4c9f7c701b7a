"""The standing benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload paper8p --seed 1 --seconds 30 --trace 0

Workloads: ``paper8p``, ``beyond`` and ``compute`` run fixed simulation
point sets (see ``simwork.py``); ``serve`` drives a ``repro-dsm serve``
process with open-loop traffic drawn from ``--seed`` (see
``servework.py``).  With ``--trace 0`` the last stdout line reports the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
reports the per-layer metrics and a Chrome trace of the run's spans is
written to ``perfbench/out/``.  Every result is checked (the identity
oracle for simulation points, byte identity with direct runs for
served ones); ``failed`` counts the operations that raised, were
refused or returned a wrong result.  ``METRICS.md`` defines every
metric.  Run from the repository root; the code under test is
``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SIM_WORKLOADS = ("paper8p", "beyond", "compute")
WORKLOADS = SIM_WORKLOADS + ("serve",)

#: Set-up samples per untraced simulation run taken before the warm
#: process starts; extra cold-fill processes after it add more.
SETUPS = 5
CHILD_TIMEOUT_S = 170.0


def catalog() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def child_env(work_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_DSM_CACHE"] = os.path.join(work_dir, "default-cache")
    return env


def spawn_until_ready(args: List[str], env: Dict[str, str]):
    """Start a simulation child; returns (process, set-up seconds).

    The child's ``READY`` line carries the scale factor its meter found
    over the imports and the time its probes took; set-up is the time
    to that line less the probes', scaled by that factor."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "simwork.py")] + args,
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    word, *numbers = line.split() or [""]
    if word != "READY" or len(numbers) != 2:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"simulation child failed to start: {line!r}")
    factor, probing = map(float, numbers)
    return proc, (ready - probing) * factor


def finish(proc) -> Dict[str, Any]:
    """Wait for a simulation child; returns its report (None if it
    printed none)."""
    try:
        output, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"simulation child exited {proc.returncode}")
    lines = output.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_sim(workload: str, seconds: float, trace: bool, work_dir: str) -> Dict:
    env = child_env(work_dir)
    base = ["--workload", workload]
    setups: List[float] = []
    colds: List[Dict[str, Any]] = []
    started = time.perf_counter()
    # Untraced runs spawn SETUPS - 1 processes for set-up samples only;
    # the last one runs the cold fill and the warm passes.  A process
    # runs its cold fill only once, so the warm process may set time
    # aside for extra cold fills in fresh processes (see simwork.measure).
    for _ in range(0 if trace else SETUPS - 1):
        proc, ready = spawn_until_ready(base + ["--setup-only"], env)
        setups.append(ready)
        finish(proc)
    remaining = max(0.0, seconds - (time.perf_counter() - started))
    proc, ready = spawn_until_ready(
        base + ["--seconds", str(remaining), "--trace", str(int(trace)),
                "--cache-dir", os.path.join(work_dir, "cold-cache")],
        env,
    )
    setups.append(ready)
    report = finish(proc)
    if report is None:
        raise RuntimeError("simulation child printed no report")
    colds.append(report)
    for k in range(report.get("extra_cold_fills", 0)):
        proc, ready = spawn_until_ready(
            base + ["--cold-only", "--cache-dir",
                    os.path.join(work_dir, f"cold-cache-{k}")],
            env,
        )
        setups.append(ready)
        colds.append(finish(proc))

    walls = report["walls"]
    wall = statistics.median(walls)
    if trace:
        values = {f"{name}.self_s": s for name, s in report["self_s"].items()}
        values.update(report["counters"])
        events = report["events"]
        values["sim.events"] = events
        values["sim.host_ns_per_event"] = wall * 1e9 / events if events else 0.0
        calls = report["access_calls"]
        values["core.runtime.access_calls"] = calls
        values["core.runtime.hot_ratio"] = report["access_hot"] / calls if calls else 0.0
        values["memory.diff_calls"] = report["diff_calls"]
        values["harness.cache.stores"] = report["cache_stores"]
        values["harness.warmup_excess_s"] = report["cold_fill_s"] - wall
        values["trace.overhead_ratio"] = report["traced_wall"] / wall
        values["host.probe_ms"] = statistics.median(report["probe_ms"])
    else:
        # Each point's latency: its median over the warm passes ("low"),
        # and over its cold-fill runs ("high"), each the point's first
        # run in a process, stored to an empty cache.
        warm = [statistics.median(v) for v in report["point_ms"].values()]
        cold = [
            statistics.median(c["cold_point_ms"][key][0] for c in colds
                              if key in c["cold_point_ms"])
            for key in report["cold_point_ms"]
        ]
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
            "cold_fill_s": statistics.median(c["cold_fill_s"] for c in colds),
            "lat_p50_ms_low": statistics.median(warm),
            "lat_p50_ms_high": statistics.median(cold),
            "max_rps": len(cold) / wall,
        }
    return {
        "values": values,
        "attempted": sum(c["attempted"] for c in colds),
        "failed": sum(len(c["failures"]) for c in colds),
        "failures": [f for c in colds for f in c["failures"]],
        "spans": report.get("spans", []),
        "samples": {"passes": len(walls), "setups": len(setups),
                    "cold_fills": len(colds),
                    "unscaled_wall_s": statistics.median(
                        report.get("elapsed", walls))},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = catalog()
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    os.environ["REPRO_DSM_CACHE"] = os.path.join(work_dir, "default-cache")
    trace = bool(args.trace)
    try:
        from spans import Spans, write_chrome

        if args.workload == "serve":
            import servework

            spans = Spans(enabled=trace)
            result = servework.run(HERE, child_env(work_dir), work_dir,
                                   args.seed, trace, spans)
            process = ("load generator", spans.records)
        else:
            result = run_sim(args.workload, args.seconds, trace, work_dir)
            process = ("simulation worker", result["spans"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    kind = "per_layer" if trace else "end_to_end"
    values = result["values"]
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in names[kind].items()
    }
    if trace:
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        write_chrome(path, dict([process]))
        print(f"perfbench: wrote {path}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    for message in result["failures"][:10]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {failed}/{attempted} "
          f"failed (failed_frac {failed / max(1, attempted):.4g}); "
          f"samples {result['samples']}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
