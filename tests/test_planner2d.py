import itertools

import numpy as np
import pytest

from aeronav.planner2d import (PlanningError, RrtParams, prune_path, rrt_plan,
                               smooth_path)
from aeronav.world import Sphere, Wall, World


def free_world():
    return World([], bounds=np.array([[-10.0, -10.0], [10.0, 10.0]]))


def test_rrt_empty_world_high_goal_bias_is_direct():
    params = RrtParams(step=20.0, goal_bias=0.99, max_iters=50)
    res = rrt_plan(np.zeros(2), np.array([5.0, 5.0]), free_world(), params,
                   rng=np.random.default_rng(1))
    assert res.success
    assert len(res.waypoints) == 2
    assert np.allclose(res.waypoints[0], [0, 0])
    assert np.allclose(res.waypoints[-1], [5, 5])


def test_rrt_goal_in_collision_raises():
    w = World([Sphere(np.array([5.0, 5.0]), 1.0)],
              bounds=np.array([[-10.0, -10.0], [10.0, 10.0]]))
    with pytest.raises(PlanningError):
        rrt_plan(np.zeros(2), np.array([5.0, 5.0]), w, RrtParams(),
                 rng=np.random.default_rng(2))


def test_rrt_deterministic_under_seed():
    w = World([Sphere(np.array([2.0, 2.0]), 1.0)],
              bounds=np.array([[-10.0, -10.0], [10.0, 10.0]]))
    p = RrtParams(step=1.0, goal_bias=0.2, max_iters=2000)
    r1 = rrt_plan(np.zeros(2), np.array([6.0, 6.0]), w, p, rng=np.random.default_rng(7))
    r2 = rrt_plan(np.zeros(2), np.array([6.0, 6.0]), w, p, rng=np.random.default_rng(7))
    assert r1.success and r2.success
    assert np.array_equal(r1.waypoints, r2.waypoints)


def test_rrt_u_wall_with_clearance_oracle():
    """Path around a U-shaped wall; every dense sample keeps clearance."""
    wall = Wall(np.array([[2.0, -3.0], [2.0, 3.0], [5.0, 3.0], [5.0, -3.0]]))
    w = World([wall], bounds=np.array([[-2.0, -8.0], [12.0, 8.0]]))
    params = RrtParams(step=1.0, goal_bias=0.1, max_iters=8000, clearance=0.4)
    res = rrt_plan(np.zeros(2), np.array([3.5, 0.0]), w, params,
                   rng=np.random.default_rng(3))
    assert res.success
    # dense collision-sampling oracle along the polyline
    for a, b in zip(res.waypoints[:-1], res.waypoints[1:]):
        for s in np.linspace(0, 1, 200):
            p = a + s * (b - a)
            assert w.distance(0, p)[0] > 0.4 - 1e-9


def test_rrt_budget_exhaustion_is_result_not_crash():
    wall = Wall(np.array([[2.0, -50.0], [2.0, 50.0]]))
    w = World([wall], bounds=np.array([[-5.0, -5.0], [5.0, 5.0]]))
    params = RrtParams(step=0.5, goal_bias=0.1, max_iters=30, clearance=0.2)
    res = rrt_plan(np.array([-3.0, 0.0]), np.array([4.0, 0.0]), w, params,
                   rng=np.random.default_rng(0))
    # the wall spans all sampling space: must fail gracefully
    assert not res.success
    assert res.waypoints is None


def test_rrt_success_monotone_in_budget():
    """Success rate over 50 seeds is monotone in the iteration budget."""
    wall = Wall(np.array([[2.0, -4.0], [2.0, 4.0]]))
    w = World([wall], bounds=np.array([[-2.0, -6.0], [8.0, 6.0]]))
    rates = []
    for iters in (30, 120, 600):
        ok = 0
        for seed in range(50):
            p = RrtParams(step=0.8, goal_bias=0.1, max_iters=iters, clearance=0.3)
            ok += rrt_plan(np.array([0.0, 0.0]), np.array([5.0, 0.0]), w, p,
                           rng=np.random.default_rng(seed)).success
        rates.append(ok / 50)
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] > 0.9


def test_prune_collinear_to_two():
    w = free_world()
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
    out = prune_path(pts, w, RrtParams())
    assert len(out) == 2
    assert np.allclose(out[0], pts[0])
    assert np.allclose(out[-1], pts[-1])


def test_prune_free_space_any_shape_to_endpoints():
    w = free_world()
    rng = np.random.default_rng(5)
    pts = rng.uniform(-5, 5, size=(8, 2))
    out = prune_path(pts, w, RrtParams())
    assert len(out) == 2


def _polyline_free(world, pts, params):
    return all(world.segment_clear(a, b, params.clearance, 0.0,
                                   resolution=params.resolution)
               for a, b in zip(pts[:-1], pts[1:]))


def test_prune_blocking_obstacle_matches_bruteforce_minimal():
    """Obstacle blocks the direct w1->w4 chord only: the backward greedy scan
    keeps the smallest-index waypoint visible from w4; brute-force
    subsequence enumeration confirms the result is minimal."""
    pts = np.array([[0.0, 0.0], [1.0, 1.5], [2.0, 2.0], [4.0, 0.0]])
    w = World([Sphere(np.array([2.0, 0.1]), 0.3)])
    params = RrtParams(resolution=0.02)
    out = prune_path(pts, w, params)
    # from w4 the smallest visible index is w2 (w1 is blocked)
    assert np.allclose(out, pts[[0, 1, 3]])

    # oracle: shortest feasible subsequence containing both endpoints
    best = None
    n = len(pts)
    for r in range(2, n + 1):
        for mid in itertools.combinations(range(1, n - 1), r - 2):
            idx = [0, *mid, n - 1]
            if _polyline_free(w, pts[idx], params):
                best = idx
                break
        if best is not None:
            break
    assert len(out) == len(best)


def test_prune_idempotent():
    pts = np.array([[0.0, 0.0], [1.0, 1.5], [2.0, 2.0], [4.0, 0.0]])
    w = World([Sphere(np.array([2.0, 0.1]), 0.3)])
    params = RrtParams(resolution=0.02)
    once = prune_path(pts, w, params)
    twice = prune_path(once, w, params)
    assert np.array_equal(once, twice)
    assert len(once) <= len(pts)


def _curvature_2d(path, s):
    d1, d2 = path.deriv(s, 1), path.deriv(s, 2)
    return abs(d1[0] * d2[1] - d1[1] * d2[0]) / np.linalg.norm(d1) ** 3


def test_smooth_symmetric_corner_symmetric_curvature():
    # symmetric through the middle waypoint for symmetric data
    path = smooth_path(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0]]))
    for ds in (0.05, 0.15, 0.25):
        ka = _curvature_2d(path, 1.0 - ds)
        kb = _curvature_2d(path, 1.0 + ds)
        assert ka == pytest.approx(kb, rel=1e-6, abs=1e-9)
