"""One set-up sample for the benchmark, taken in a fresh interpreter.

    python3 benchmarks/setup_time.py --workload sensing --seed 0

Times importing aeronav, generating and validating the workload's configs,
and building every instance up to its first tick (each config run with
duration 0, which also generates the tunnel clouds).  Prints one JSON
object, {"setup_s": ...}.
"""
from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    W.pin_threads()
    W.import_aeronav()
    from aeronav.harness.runner import run
    for cfg in W.build_configs(W.WORKLOADS[args.workload], args.seed):
        try:
            run({**cfg, "duration": 0.0})
        except Exception:   # the measured passes count and report the failure
            pass
    print(json.dumps({"setup_s": perf_counter() - T0}))


if __name__ == "__main__":
    main()
