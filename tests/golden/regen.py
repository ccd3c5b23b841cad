"""Regenerate tests/golden/digests.json, the golden run-log digests.

    PYTHONPATH=src python tests/golden/regen.py

Runs every stock scenario, `configs/*.json` as loaded by
`aeronav.harness.scenarios.all_scenarios()` and keyed by file stem, and
records, per scenario, the sha256 of its run-log CSV, of its metrics dict
and of its event list (both as JSON with sorted keys), and the duration it
ran for.  Most scenarios run at full length; the slow ones in PREFIX run
only for a prefix of their stock duration.  The numpy and scipy versions
are recorded too, since float results can move with them.

`tests/test_golden.py` re-runs the same scenarios and compares.  Regenerate
only when a change is meant to alter trajectories, and name every changed
scenario in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

GOLDEN = Path(__file__).resolve().parent / "digests.json"

# Simulated seconds for the scenarios too slow to run whole in the test
# suite (full-length host time on a 2-core machine in the comment).
PREFIX = {
    "flock-n4": 60.0,               # 19 s
    "flock-n20": 20.0,              # 9 s
    "flock-n100": 4.0,              # 31 s
    "coverage-barrier-n20": 5.0,    # 8 s
}


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(result) -> dict:
    """Digests of one finished run."""
    return {"csv_sha256": _sha(result.log.to_csv()),
            "metrics_sha256": _sha(json.dumps(result.metrics, sort_keys=True)),
            "events_sha256": _sha(json.dumps(result.log.events, sort_keys=True))}


def golden_configs() -> dict:
    """Every stock scenario, with the duration the digests are taken at."""
    from aeronav.harness.scenarios import all_scenarios
    out = {}
    for name, cfg in all_scenarios().items():
        if name in PREFIX:
            cfg["duration"] = min(float(cfg["duration"]), PREFIX[name])
        out[name] = cfg
    return out


def main() -> None:
    from aeronav.harness.runner import run
    scenarios = {}
    for name, cfg in golden_configs().items():
        t0 = time.perf_counter()
        scenarios[name] = {"duration": cfg["duration"], **digest(run(cfg))}
        print(f"{name}: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    with open(GOLDEN, "w") as fh:
        json.dump({**versions(), "scenarios": scenarios}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print(GOLDEN)


if __name__ == "__main__":
    main()
