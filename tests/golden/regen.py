"""Regenerate or check tests/golden/digests.json, the golden run-log digests.

    PYTHONPATH=src python tests/golden/regen.py [--check] [SCENARIO ...]

Runs every stock scenario, `configs/*.json` as loaded by
`aeronav.harness.scenarios.all_scenarios()` and keyed by file stem, and
records, per scenario, the sha256 of its run-log CSV, of its metrics dict
and of its event list (both as JSON with sorted keys), and the duration it
ran for.  Most scenarios run at full length; the slow ones in PREFIX run
only for a prefix of their stock duration.  The numpy and C library
versions are recorded too, since float results can move with them: the
coverage runs call the C library's `tanh` through `math`.

Given scenario names, only those are rerun and rewritten; every other entry
stays as it is.  With --check nothing is written: each scenario whose
digests differ from the file is printed with the parts that differ (`csv`,
`metrics`, `events`, `duration`), and the exit status is 1 if any does.

`tests/test_golden.py` re-runs the same scenarios and compares.  Regenerate
only when a change is meant to alter trajectories, and name every changed
scenario in CHANGES.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "digests.json"

# Simulated seconds for the scenarios too slow to run whole in the test
# suite (full-length host time on a 2-core machine in the comment).
PREFIX = {
    "flock-n4": 60.0,               # 6 s
    "flock-n20": 20.0,              # 4 s
    "flock-n100": 4.0,              # 20 s
    "coverage-barrier-n20": 5.0,    # 3 s
}


def versions() -> dict:
    return {"numpy": np.__version__, "libc": " ".join(platform.libc_ver())}


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


def differ(want: dict, got: dict) -> list[str]:
    """The digest parts (csv, metrics, events, duration) that differ."""
    return [k.removesuffix("_sha256") for k in sorted(want.keys() | got.keys())
            if got.get(k) != want.get(k)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="SCENARIO",
                        help="rerun only these scenarios (default: all)")
    parser.add_argument("--check", action="store_true",
                        help="compare with the file instead of writing it")
    args = parser.parse_args(argv)
    configs = golden_configs()
    unknown = sorted(set(args.names) - set(configs))
    if unknown:
        parser.error(f"unknown scenarios: {', '.join(unknown)}")
    names = args.names or sorted(configs)
    from aeronav.harness.runner import run
    got = {}
    for name in names:
        t0 = time.perf_counter()
        got[name] = {"duration": configs[name]["duration"], **digest(run(configs[name]))}
        print(f"{name}: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"scenarios": {}}
    if args.check:
        failed = 0
        for name in names:
            parts = differ(golden["scenarios"].get(name, {}), got[name])
            if parts:
                failed += 1
                print(f"{name}: {', '.join(parts)} differ")
        print(f"{failed} of {len(names)} scenarios differ from {GOLDEN}")
        return 1 if failed else 0
    scenarios = {**golden["scenarios"], **got} if args.names else got
    with open(GOLDEN, "w") as fh:
        json.dump({**versions(), "scenarios": scenarios}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print(GOLDEN)
    return 0


if __name__ == "__main__":
    sys.exit(main())
