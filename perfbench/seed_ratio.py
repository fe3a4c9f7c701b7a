"""Time ``paper8p`` against the in-repo seed tree: one ``seed_ratio`` per point.

    python3 perfbench/seed_ratio.py

Each point runs through ``.bench_seed/timepoint.py`` (its PointSpec
method: 8p, ``small``, plain cluster and cost model, warm start) in a
fresh process, once against ``.bench_seed/src`` and once against
``src``, alternating which tree goes first from cycle to cycle, so host
drift falls on both sides alike.  A side's time is its best over all
cycles and repetitions; ``seed_ratio`` is seed seconds over current
seconds (above 1: the current tree is faster).  The simulated
``exec_time`` of both trees is checked against ``oracle.json``.  This
mode is separate from the benchmark's workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = os.path.join(ROOT, ".bench_seed")
TREES = {"seed": os.path.join(SEED, "src"), "head": os.path.join(ROOT, "src")}

#: Interleaved seed/head cycles, and repetitions per timed process.
CYCLES = 2
REPS = 1

sys.path.insert(0, HERE)

from simwork import ORACLE_PATH, WORKLOADS  # noqa: E402


def time_point(tree: str, app: str, variant: str, reps: int) -> dict:
    env = dict(os.environ, PYTHONPATH=TREES[tree])
    out = subprocess.run(
        [sys.executable, os.path.join(SEED, "timepoint.py"), app, variant,
         str(reps)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    with open(ORACLE_PATH) as stream:
        oracle = json.load(stream)["points"]
    report = {}
    identical = True
    for point in WORKLOADS["paper8p"]:
        best = {}
        for cycle in range(CYCLES):
            order = ("seed", "head") if cycle % 2 == 0 else ("head", "seed")
            for tree in order:
                timed = time_point(tree, point.app, point.variant, REPS)
                best[tree] = min(best.get(tree, timed["seconds"]),
                                 timed["seconds"])
                if timed["exec_time"] != oracle[point.key]["exec_time"]:
                    identical = False
                    print(f"{point.key}: {tree} exec_time "
                          f"{timed['exec_time']!r} differs from the oracle",
                          file=sys.stderr)
        report[point.key] = {
            "seed_s": best["seed"],
            "head_s": best["head"],
            "seed_ratio": best["seed"] / best["head"],
        }
        print(f"{point.key:<22} seed {best['seed']:.4f}s  head "
              f"{best['head']:.4f}s  seed_ratio "
              f"{report[point.key]['seed_ratio']:.3f}", file=sys.stderr)
    print(json.dumps({"points": report, "exec_time_identical": identical,
                      "cycles": CYCLES, "reps": REPS}))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
