"""Run monitors, one row of MONITORS each.  They read the run's per-tick
safety record and its metrics, never the log rows, so they cannot change a
trajectory byte and still check every tick the log decimates away.  Each
verdict carries a signed margin, the value's distance past the threshold in
the metric's units: >= 0 (> 0 for a strict test) exactly when it passes, so
+inf (no obstacle, no other agent) passes a clearance and NaN fails."""
from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

VEHICLES = ("hybrid2d", "reactive3d", "deform3d", "deform3d_quad")
# a coverage run reports its sweep consensus with a sweep, its Lloyd descent without
SWEPT = "coverage+sweep"
# test -> the margin of value v over threshold t, >= 0 when v passes
_MARGINS = {">=": lambda v, t: v - t, ">": lambda v, t: v - t,
            "<=": lambda v, t: t - v, "<": lambda v, t: t - v,
            "==": lambda v, t: 0.0 - abs(v - t),
            "true": lambda v, t: v if v != v else 1.0 if v else -1.0}
_STRICT = (">", "<")


@dataclass(frozen=True)
class Monitor:
    key: str            # monitors.<key>, a config value of type spec, turns it on
    spec: str
    name: str           # of its result
    metric: str         # the value it tests against the threshold
    test: str           # metric <test> threshold: >=, >, <=, <, == or true
    kinds: tuple        # the runs that report the metric
    detail: str         # formats v (the value), thr and the metrics
    fail: str | None = None         # the detail of a failure, if it differs
    per_tick: bool = False          # judge every tick's sample, not the end
    fixed: float | None = None      # the threshold, if not the config value


MONITORS = (
    Monitor("d_safe", "num", "d_safe", "min_d_obs", ">=", VEHICLES + ("flocking",),
            "min d_obs {v:.4f} >= {thr}", per_tick=True),
    Monitor("min_pair", "num", "min_pair", "min_pair_d", ">=",
            ("flocking", "coverage", SWEPT), "min pairwise {v:.4f}", per_tick=True),
    Monitor("require_goal", "bool", "goal_reached", "goal_reached", "true",
            VEHICLES + ("tunnel", "flocking"), "goal reached at t={goal_time}",
            fail="goal not reached"),
    Monitor("expect_replans", "int", "replans", "replan_count", "==", ("hybrid2d",),
            "expected {thr:.0f}, got {v:.0f}"),
    Monitor("centroid_tol", "num", "centroid_convergence", "final_centroid_err", "<",
            ("coverage", SWEPT), "max |C - p| = {v:.4f} (tol {thr})"),
    Monitor("max_speed_final", "num", "final_speeds", "final_max_speed", "<",
            ("flocking", "coverage", SWEPT), "final max speed {v:.4f} (tol {thr})"),
    Monitor("lattice_tol", "num", "quasi_lattice", "lattice_err", "<=", ("flocking",),
            "max |spacing - params.flock.d_ij| = {v:.3f} (tol {thr})"),
    Monitor("cost_non_increasing", "bool", "lloyd_descent", "cost_max_increase", "<=",
            ("coverage",), "max tick-to-tick cost increase {v:.2e}", fixed=1e-6),
    Monitor("progress_window", "pos", "progress", "progress_monotone", "true", ("tunnel",),
            "curvilinear progress strictly increasing", fail="progress stalled"),
    Monitor("wall_margin", "num", "wall_margin", "min_wall_distance", ">", ("tunnel",),
            "min wall distance {v:.3f} > {thr}", per_tick=True),
    Monitor("sweep_tol", "num", "sweep_consensus", "sweep_speed_err", "<=", (SWEPT,),
            "max |v - params.coverage.sweep.g0| = {v:.4f} (tol {thr})"),
)


def judged(cfg: dict) -> list[Monitor]:
    """The monitors whose metric a run of this config reports."""
    swept = cfg["kind"] == "coverage" and "sweep" in cfg["params"]["coverage"]
    return [m for m in MONITORS if (SWEPT if swept else cfg["kind"]) in m.kinds]


@dataclass
class MonitorResult:
    name: str
    passed: bool
    detail: str = ""
    first_violation_tick: int | None = None
    margin: float = np.nan


def min_keep_nan(a: float, b: float) -> float:
    """min(a, b), or NaN if either is; min() drops a NaN second argument."""
    return a if a != a or a <= b else b


class SafetyRecord:
    """A run's running minimum of each sampled clearance metric (keys) and
    the first tick whose sample fails each per-tick monitor in monitors."""

    def __init__(self, keys, monitors: dict):
        self.minima = dict.fromkeys(keys, np.inf)
        self.first_violation: dict[str, int] = {}
        self._checks = [(m.key, m.metric, float(monitors[m.key]),
                         operator.ge if m.test == ">=" else operator.gt)
                        for m in MONITORS if m.per_tick and m.key in monitors]

    def add(self, tick: int, sample: dict) -> None:
        for key, v in sample.items():
            self.minima[key] = min_keep_nan(self.minima[key], v)
        for name, key, thr, ok in self._checks:
            if name not in self.first_violation and not ok(sample[key], thr):
                self.first_violation[name] = tick


def evaluate(record: SafetyRecord, monitors: dict, metrics: dict) -> list[MonitorResult]:
    """Judge the configured monitors in table order; a bool key is on if true."""
    out = []
    for m in MONITORS:
        if monitors.get(m.key, False) is False:
            continue
        thr = m.fixed if m.fixed is not None else float(monitors[m.key])
        v = float((record.minima if m.per_tick else metrics).get(m.metric, np.nan))
        margin = _MARGINS[m.test](v, thr)
        tick = record.first_violation.get(m.key)
        passed = tick is None if m.per_tick else (
            margin > 0 if m.test in _STRICT else margin >= 0)
        text = m.detail if passed or m.fail is None else m.fail
        detail = (f"violated at tick {tick}" if tick is not None
                  else text.format_map(defaultdict(lambda: None, metrics, v=v, thr=thr)))
        out.append(MonitorResult(m.name, passed, detail, tick, margin))
    return out
