"""Run monitors.

Monitors read the run's per-tick safety record and its metrics, never the
log rows, so enabling or disabling them cannot change a trajectory byte, and
a tick the log decimates away is still checked.  A failed monitor marks the
run FAILED with the first violating tick.  A clearance check passes only
when the value is at least its threshold (above it for `wall_margin`): +inf
(no obstacle, no other agent) passes and NaN fails.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .config import ConfigError

# per-tick monitor -> the clearance metric it bounds and the test a sample passes
CLEARANCE_MONITORS = {"d_safe": ("min_d_obs", operator.ge),
                      "min_pair": ("min_pair_d", operator.ge),
                      "wall_margin": ("min_wall_distance", operator.gt)}


@dataclass
class MonitorResult:
    name: str
    passed: bool
    detail: str = ""
    first_violation_tick: int | None = None


def min_keep_nan(a: float, b: float) -> float:
    """min(a, b), or NaN if either is; min() drops a NaN second argument."""
    return a if a != a or a <= b else b


class SafetyRecord:
    """A run's per-tick safety record: the running minimum of each sampled
    clearance metric (keys), and the first tick whose sample fails each
    clearance monitor in monitors, which must bound one of them."""

    def __init__(self, keys, monitors: dict):
        self.minima = dict.fromkeys(keys, np.inf)
        self.first_violation: dict[str, int] = {}
        self._checks = [(name, key, float(monitors[name]), ok)
                        for name, (key, ok) in CLEARANCE_MONITORS.items() if name in monitors]
        for name, key, _, _ in self._checks:
            if key not in self.minima:
                raise ConfigError(f"monitors.{name}: this kind reports no {key}")

    def add(self, tick: int, sample: dict) -> None:
        for key, v in sample.items():
            self.minima[key] = min_keep_nan(self.minima[key], v)
        for name, key, thr, ok in self._checks:
            if name not in self.first_violation and not ok(sample[key], thr):
                self.first_violation[name] = tick


def _clearance_result(name: str, record: SafetyRecord, detail: str) -> MonitorResult:
    tick = record.first_violation.get(name)
    return MonitorResult(name, tick is None,
                         detail if tick is None else f"violated at tick {tick}", tick)


def evaluate(record: SafetyRecord, monitors: dict, metrics: dict) -> list[MonitorResult]:
    out = []
    if not monitors:
        return out
    if "d_safe" in monitors:
        out.append(_clearance_result(
            "d_safe", record, f"min d_obs {metrics.get('min_d_obs', float('nan')):.4f} "
                              f">= {float(monitors['d_safe'])}"))
    if "min_pair" in monitors:
        out.append(_clearance_result(
            "min_pair", record, f"min pairwise {metrics.get('min_pair_d', float('nan')):.4f}"))
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
    if "lattice_tol" in monitors:
        tol = float(monitors["lattice_tol"])
        err = float(metrics.get("lattice_err", np.inf))
        out.append(MonitorResult("quasi_lattice", err <= tol,
                                 f"max |spacing - params.flock.d_ij| = {err:.3f} "
                                 f"(tol {tol})"))
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
        v = float(metrics.get("min_wall_distance", np.inf))
        thr = float(monitors["wall_margin"])
        out.append(_clearance_result("wall_margin", record,
                                     f"min wall distance {v:.3f} > {thr}"))
    if "sweep_tol" in monitors:
        tol = float(monitors["sweep_tol"])
        err = float(metrics.get("sweep_speed_err", np.inf))
        out.append(MonitorResult("sweep_consensus", err <= tol,
                                 f"max |v - params.coverage.sweep.g0| = {err:.4f} "
                                 f"(tol {tol})"))
    return out


def all_passed(results: list[MonitorResult]) -> bool:
    return all(r.passed for r in results)
