"""Post-hoc run monitors.

Monitors only read the finished log (plus per-engine metrics), so enabling
or disabling them cannot change a trajectory byte.  A failed monitor marks
the run FAILED with the first violating tick.  A clearance check passes only
when the value is at least its threshold: +inf (no obstacle, no other agent)
passes and NaN fails.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MonitorResult:
    name: str
    passed: bool
    detail: str = ""
    first_violation_tick: int | None = None


def _first_violation(records, predicate):
    for r in records:
        if not predicate(r):
            return r["tick"]
    return None


def evaluate(log, monitors: dict, metrics: dict) -> list[MonitorResult]:
    out = []
    if not monitors:
        return out
    if "d_safe" in monitors:
        thr = float(monitors["d_safe"])
        tick = _first_violation(log.records, lambda r: r["d_obs"] >= thr)
        out.append(MonitorResult("d_safe", tick is None,
                                 f"min d_obs {metrics.get('min_d_obs', float('nan')):.4f} "
                                 f">= {thr}" if tick is None else
                                 f"violated at tick {tick}", tick))
    if "min_pair" in monitors:
        thr = float(monitors["min_pair"])
        tick = _first_violation(log.records, lambda r: r["min_pair"] >= thr)
        out.append(MonitorResult("min_pair", tick is None,
                                 f"min pairwise {metrics.get('min_pair_d', float('nan')):.4f}"
                                 if tick is None else f"violated at tick {tick}", tick))
    if monitors.get("require_goal"):
        ok = bool(metrics.get("goal_reached", False))
        out.append(MonitorResult("goal_reached", ok,
                                 f"goal reached at t={metrics.get('goal_time')}"
                                 if ok else "goal not reached"))
    if "expect_replans" in monitors:
        want = int(monitors["expect_replans"])
        got = int(metrics.get("replan_count", 0))
        out.append(MonitorResult("replans", got == want,
                                 f"expected {want}, got {got}"))
    if "centroid_tol" in monitors:
        tol = float(monitors["centroid_tol"])
        err = float(metrics.get("final_centroid_err", np.inf))
        out.append(MonitorResult("centroid_convergence", err < tol,
                                 f"max |C - p| = {err:.4f} (tol {tol})"))
    if "max_speed_final" in monitors:
        tol = float(monitors["max_speed_final"])
        v = float(metrics.get("final_max_speed", np.inf))
        out.append(MonitorResult("final_speeds", v < tol,
                                 f"final max speed {v:.4f} (tol {tol})"))
    if "lattice_spacing" in monitors:
        d = float(monitors["lattice_spacing"])
        tol = float(monitors.get("lattice_tol", 0.5))
        err = float(metrics.get("lattice_err", np.inf))
        out.append(MonitorResult("quasi_lattice", err <= tol,
                                 f"max |spacing - {d}| = {err:.3f} (tol {tol})"))
    if monitors.get("cost_non_increasing"):
        worst = float(metrics.get("cost_max_increase", np.inf))
        out.append(MonitorResult("lloyd_descent", worst <= 1e-6,
                                 f"max tick-to-tick cost increase {worst:.2e}"))
    if "progress_window" in monitors:
        ok = bool(metrics.get("progress_monotone", False))
        out.append(MonitorResult("progress", ok,
                                 "curvilinear progress strictly increasing"
                                 if ok else "progress stalled"))
    if "wall_margin" in monitors:
        thr = float(monitors["wall_margin"])
        v = float(metrics.get("min_wall_distance", np.inf))
        out.append(MonitorResult("wall_margin", v > thr,
                                 f"min wall distance {v:.3f} > {thr}"))
    if "sweep_speed" in monitors:
        g0 = float(monitors["sweep_speed"])
        tol = float(monitors.get("sweep_tol", 0.05))
        err = float(metrics.get("sweep_speed_err", np.inf))
        out.append(MonitorResult("sweep_consensus", err <= tol,
                                 f"max |v - g0| = {err:.4f} (tol {tol})"))
    return out


def all_passed(results: list[MonitorResult]) -> bool:
    return all(r.passed for r in results)
