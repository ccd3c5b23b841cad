"""RRT global planner with goal bias, backward-greedy pruning and quintic
smoothing.

Planning is Euclidean (nonholonomy handled downstream by smoothing plus the
reactive layer's safety margin) and optimistic: the caller hands it a world
of the *known* obstacles, so unknown space counts as free.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bezier import PiecewisePath
from .geom import norm
from .world import World


class PlanningError(Exception):
    pass


@dataclass(frozen=True)
class RrtParams:
    step: float = 1.0
    goal_bias: float = 0.1
    max_iters: int = 5000
    resolution: float = 0.05       # collision-check sampling along edges
    clearance: float = 0.0         # extra margin kept from known obstacles

    def __post_init__(self):
        if not (0.0 < self.goal_bias < 1.0):
            raise ValueError("goal bias must lie in (0, 1)")
        if self.step <= 0.0 or self.resolution <= 0.0:
            raise ValueError("step and resolution must be positive")


@dataclass
class PlanResult:
    waypoints: np.ndarray | None
    iterations: int
    success: bool
    reason: str = ""


def _free(world: World, p, params: RrtParams, t: float) -> bool:
    return world.point_free(p, params.clearance, t)


def _edge_free(world: World, a, b, params: RrtParams, t: float) -> bool:
    return world.segment_clear(a, b, params.clearance, t, resolution=params.resolution)


def rrt_plan(start, goal, world: World, params: RrtParams,
             rng: np.random.Generator, t: float = 0.0) -> PlanResult:
    """Grow a tree from start toward goal with straight-line steering.

    Every sample is drawn from rng, in world.bounds (else the start-goal box
    grown by 10 m), so a seeded rng fixes the result.
    Unreachable-within-budget is a failure result, not an exception;
    infeasible endpoints are errors.
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    bounds = world.bounds
    if bounds is None:
        bounds = np.stack([np.minimum(start, goal) - 10.0, np.maximum(start, goal) + 10.0])
    if not _free(world, start, params, t):
        raise PlanningError("start position is in collision")
    if not _free(world, goal, params, t):
        raise PlanningError("goal position is in collision")

    nodes = [start]
    parents = [-1]
    pts = np.empty((params.max_iters + 1, len(start)))
    pts[0] = start
    n = 1

    for it in range(params.max_iters):
        if rng.random() < params.goal_bias:
            sample = goal
        else:
            sample = rng.uniform(bounds[0], bounds[1])
        d2 = np.sum((pts[:n] - sample) ** 2, axis=1)
        near_i = int(np.argmin(d2))
        near = pts[near_i]
        delta = sample - near
        dist = norm(delta)
        if dist < 1e-9:
            continue
        new = near + delta * min(1.0, params.step / dist)
        if not _edge_free(world, near, new, params, t):
            continue
        pts[n] = new
        nodes.append(new)
        parents.append(near_i)
        n += 1
        if norm(new - goal) <= params.step and _edge_free(world, new, goal, params, t):
            path = [goal, new]
            k = parents[len(nodes) - 1]
            while k >= 0:
                path.append(nodes[k])
                k = parents[k]
            path.reverse()
            w = np.asarray(path)
            keep = [0] + [i for i in range(1, len(w))
                          if norm(w[i] - w[i - 1]) > 1e-9]
            return PlanResult(w[keep], it + 1, True)
    return PlanResult(None, params.max_iters, False, "iteration budget exhausted")


def prune_path(waypoints: np.ndarray, world: World, params: RrtParams,
               t: float = 0.0) -> np.ndarray:
    """Backward greedy pruning: starting from the last waypoint, repeatedly
    connect to the smallest-index waypoint visible from the current one."""
    w = np.asarray(waypoints, dtype=float)
    k = len(w)
    if k <= 2:
        return w.copy()
    out_rev = [k - 1]
    i = k - 1
    while i != 0:
        j = -1
        while True:
            j += 1
            if _edge_free(world, w[i], w[j], params, t) or j == i - 1:
                break
        out_rev.append(j)
        i = j
    idx = list(reversed(out_rev))
    return w[idx]


def smooth_path(waypoints: np.ndarray) -> PiecewisePath:
    """C2 quintic interpolant of the waypoints."""
    w = np.asarray(waypoints, dtype=float)
    if len(w) < 2:
        raise PlanningError("smoothing needs at least two waypoints")
    return PiecewisePath.from_waypoints(w)
