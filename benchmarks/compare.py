#!/usr/bin/env python3
"""Compare two sets of benchmark results: parent and change.

    python3 benchmarks/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files of `run.py` (`--out`), measured with
the same benchmark code and run length.  For every workload and end-to-end
metric it prints each side's median and quartiles, the share of pairs the
change won (runs paired by seed, ties counting for neither) and a verdict:

- gain: the change wins at least nine tenths of the pairs and the medians
  differ by more than the parent's quartile spread;
- no worse: the change's median is not worse than the parent's by more than
  the metric's bound from BENCHMARK.json;
- regression: it is worse by more than the bound;
- unresolved: the parent's own spread is wider than the bound, unless every
  change run is better than every parent run.

It then prints each instance's median time on both sides, each layer's self
time per traced pass on both sides, and the instances whose run-log digests
differ at the same seed (changed trajectories).
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAIL_FRAC = {"name": "fail_frac", "unit": "ratio", "better": "lower", "bound": 0.0}


def load(directory: Path) -> dict:
    """(workload, trace) -> list of results, sorted by seed."""
    out = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        res = json.loads(path.read_text())
        out[(res["workload"], res["trace"])].append(res)
    for runs in out.values():
        runs.sort(key=lambda r: r["seed"])
    return out


def value(res: dict, name: str) -> float:
    return res["fail_frac"] if name == "fail_frac" else res["metrics"][name]["value"]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs by seed; when the seeds differ, pair them in seed order."""
    by_seed = {r["seed"]: r for r in change}
    if sorted(by_seed) == sorted(r["seed"] for r in parent) and len(by_seed) == len(change):
        return [(p, by_seed[p["seed"]]) for p in parent]
    return list(zip(parent, change))


def verdict(metric: dict, p: list[float], c: list[float], won: int, n_pairs: int) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(p)
    c_med = statistics.median(c)
    better = sign * (p_med - c_med) > 0
    if n_pairs and won >= 0.9 * n_pairs and better and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain"
    bound = metric["bound"]
    if p_med == 0.0:
        return "no worse" if sign * (c_med - p_med) <= 0 else "regression"
    if (p_q3 - p_q1) / abs(p_med) > bound:
        all_better = (max(c) < min(p)) if sign > 0 else (min(c) > max(p))
        return "no worse (every run better)" if all_better else "unresolved"
    worse = sign * (c_med - p_med) / abs(p_med)
    return "no worse" if worse <= bound else f"regression ({worse:+.1%})"


def compare_e2e(parent: dict, change: dict, metrics: list[dict]) -> None:
    print(f"{'workload':<12} {'metric':<18} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>7}  verdict")
    for key in sorted(k for k in parent if k[1] == 0):
        if key not in change:
            print(f"{key[0]:<12} no change runs")
            continue
        pr = pairs(parent[key], change[key])
        for m in metrics:
            p = [value(r, m["name"]) for r in parent[key]]
            c = [value(r, m["name"]) for r in change[key]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            won = sum(1 for a, b in pr if sign * (value(a, m["name"]) - value(b, m["name"])) > 0)
            pq = "/".join(f"{x:.5g}" for x in quartiles(p))
            cq = "/".join(f"{x:.5g}" for x in quartiles(c))
            print(f"{key[0]:<12} {m['name']:<18} {pq:>32} {cq:>32} "
                  f"{won:>3}/{len(pr):<3}  {verdict(m, p, c, won, len(pr))}  [{m['unit']}]")


def compare_instances(parent: dict, change: dict) -> None:
    """Median host time of each instance (median over runs of the per-run
    medians), so that a change that helps one instance of a workload and
    slows another shows."""
    for key in sorted(k for k in parent if k[1] == 0):
        if key not in change:
            continue
        print(f"\n{key[0]}: instance time (median over runs)")
        print(f"  {'instance':<26} {'parent s':>10} {'change s':>10} {'delta':>8}")
        for inst in parent[key][0]["instances"]:
            name = inst["name"]
            p, c = (statistics.median(i["median_s"] for r in side[key]
                                      for i in r["instances"] if i["name"] == name)
                    for side in (parent, change))
            print(f"  {name:<26} {p:>10.4g} {c:>10.4g} {(c - p) / p:>+8.1%}")


def compare_layers(parent: dict, change: dict) -> None:
    for key in sorted(k for k in parent if k[1] == 1):
        if key not in change:
            continue
        print(f"\n{key[0]}: layer self time per traced pass (median over runs)")
        print(f"  {'layer':<12} {'parent s':>10} {'change s':>10} {'delta s':>10} {'delta':>8}")
        layers = [k for k in parent[key][0]["layers"] if k.split(".")[1] == "self_s"]
        for name in layers:
            p = statistics.median(r["layers"][name] for r in parent[key])
            c = statistics.median(r["layers"][name] for r in change[key])
            rel = f"{(c - p) / p:+.1%}" if p else "-"
            print(f"  {name.split('.')[0]:<12} {p:>10.4g} {c:>10.4g} {c - p:>+10.4g} {rel:>8}")
        p, c = (statistics.median(r["layers"]["trace.overhead_frac"] for r in side[key])
                for side in (parent, change))
        print(f"  tracing overhead (traced / untraced pass - 1): {p:+.3f} -> {c:+.3f}")


def compare_digests(parent: dict, change: dict) -> None:
    changed = set()
    for key, runs in parent.items():
        by_seed = {r["seed"]: r for r in change.get(key, [])}
        for r in runs:
            other = by_seed.get(r["seed"])
            if other is None:
                continue
            theirs = {i["name"]: i["digest"] for i in other["instances"]}
            for inst in r["instances"]:
                if theirs.get(inst["name"]) not in (None, inst["digest"]):
                    changed.add((key[0], r["seed"], inst["name"]))
    print("\nrun-log digests: " + ("identical at every shared seed" if not changed else
                                   f"{len(changed)} differ"))
    for wl, seed, name in sorted(changed):
        print(f"  {wl} seed {seed}: {name}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--bench", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    metrics = json.loads(args.bench.read_text())["end_to_end"] + [FAIL_FRAC]
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("compare: no result files in one of the directories", file=sys.stderr)
        return 2
    compare_e2e(parent, change, metrics)
    compare_instances(parent, change)
    compare_layers(parent, change)
    compare_digests(parent, change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
