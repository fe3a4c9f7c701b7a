"""Regenerate ``tests/golden_engine.json``.

Run this ONLY when a simulated-semantics change is intentional (protocol
fix, cost-model change); performance work must leave the goldens alone —
that is the point of ``tests/test_engine_equivalence.py``.

Usage::

    PYTHONPATH=src python tests/regen_golden_engine.py
"""

import json
import pathlib

from repro import RunConfig, run_program, run_sequential, variant_by_name
from repro.apps import registry

# A spread across protocols (Cashmere, TreadMarks, HLRC), mechanisms
# (poll, interrupt, protocol processor), and transports (MC, UDP).
CONFIGS = [
    ("sor", "csm_poll", 4, "tiny"),
    ("sor", "tmk_mc_poll", 4, "tiny"),
    ("water", "tmk_udp_int", 2, "tiny"),
    ("gauss", "csm_pp", 4, "tiny"),
    ("tsp", "hlrc_poll", 4, "tiny"),
    ("lu", "csm_int", 4, "tiny"),
    # Barnes pins the demand-fetched tree walk: its exec_time depends on
    # the order tree pages are fetched between interaction charges.
    ("barnes", "csm_poll", 4, "tiny"),
    ("barnes", "tmk_mc_poll", 8, "tiny"),
    ("barnes", "hlrc_poll", 4, "tiny"),
]


def golden(app, variant, nprocs, scale):
    module = registry.load(app)
    params = module.default_params(scale)
    cfg = RunConfig(
        variant=variant_by_name(variant), nprocs=nprocs, warm_start=True
    )
    result = run_program(module.program(), cfg, params)
    agg = result.stats.aggregate_counters()
    return {
        "app": app,
        "variant": variant,
        "nprocs": nprocs,
        "scale": scale,
        "exec_time": result.exec_time,
        "network_bytes": result.network_bytes,
        "counters": {k: agg[k] for k in sorted(agg)},
        "breakdown": result.breakdown.as_dict(),
    }


def main() -> None:
    out = [golden(*spec) for spec in CONFIGS]
    module = registry.load("sor")
    seq = run_sequential(module.program(), module.default_params("tiny"))
    out.append({
        "app": "sor",
        "variant": "sequential",
        "nprocs": 1,
        "scale": "tiny",
        "exec_time": seq.exec_time,
        "network_bytes": seq.network_bytes,
        "counters": {},
        "breakdown": seq.breakdown.as_dict(),
    })
    path = pathlib.Path(__file__).parent / "golden_engine.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} goldens to {path}")


if __name__ == "__main__":
    main()
