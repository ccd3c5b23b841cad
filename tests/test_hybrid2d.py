import numpy as np
import pytest

from aeronav.bezier import PiecewisePath
from aeronav.harness.runner import run
from aeronav.hybrid2d import (MU, HybridNavigator, HybridParams, NavMode, detect_trap,
                              escape_goal, pure_pursuit_2d, reactive_law_2d, turn_direction)
from aeronav.planner2d import RrtParams
from aeronav.plants import LimitSet, Unicycle2DState, step_unicycle
from aeronav.world import Sphere, Wall, World

P = HybridParams()


def test_reactive_law_on_sliding_surface_zero_turn():
    v, u = reactive_law_2d(P.d0, 0.0, 1.0, P)
    assert v == P.v_max
    assert u == pytest.approx(0.0, abs=1e-12)


def test_reactive_law_saturated_branch_value():
    # d - d0 = 10 saturates chi at delta*gamma = 0.5; law value evaluated
    # directly from its definition with the configured smooth-sgn steepness
    v, u = reactive_law_2d(P.d0 + 10.0, 0.0, 1.0, P)
    assert u == pytest.approx(P.u_max * np.tanh(MU * 0.5))
    assert u > 0.0


def test_reactive_law_negative_distance_rejected():
    with pytest.raises(ValueError):
        reactive_law_2d(-0.1, 0.0, 1.0, P)


def test_reactive_orbit_matches_analytic_turn_rate():
    """Closed loop around a disc: steady turn rate within 2% of the analytic
    circular-orbit value V/(r_obs + d0)."""
    r_obs = 1.0
    disc = Sphere(np.zeros(2), r_obs)
    world = World([disc])
    # start on the orbit: position north of the disc, heading tangential
    state = Unicycle2DState(0.0, r_obs + P.d0, np.pi)
    gamma = turn_direction(state, world.distance(0, state.position)[1])
    lim = LimitSet(v_max=P.v_max, u_max=P.u_max)
    dt_c, n_sub = 0.1, 10
    d_prev = None
    us, ds = [], []
    for k in range(400):
        d, _, _ = world.nearest_obstacle(state.position)
        d_dot = 0.0 if d_prev is None else (d - d_prev) / dt_c
        d_prev = d
        v, u = reactive_law_2d(d, d_dot, gamma, P)
        if k > 100:
            us.append(u)
            ds.append(d)
        for _ in range(n_sub):
            state = step_unicycle(state, v, u, dt_c / n_sub, limits=lim)
    u_pred = P.v_max / (r_obs + P.d0)
    assert np.mean(us) == pytest.approx(u_pred, rel=0.02)
    assert np.mean(ds) == pytest.approx(P.d0, abs=0.06)


def test_turn_direction_left_right():
    s = Unicycle2DState(0.0, 0.0, 0.0)  # heading +x
    assert turn_direction(s, np.array([1.0, 1.0])) == 1.0   # obstacle left
    assert turn_direction(s, np.array([1.0, -1.0])) == -1.0  # obstacle right


def test_pure_pursuit_aligned_zero_turn():
    path = PiecewisePath.straight(np.zeros(2), np.array([10.0, 0.0]))
    s = Unicycle2DState(0.0, 0.0, 0.0)
    v, u, _ = pure_pursuit_2d(s, path, P)
    assert v == P.v_max
    assert u == pytest.approx(0.0, abs=1e-9)


def test_pure_pursuit_target_behind_saturates_positive():
    path = PiecewisePath.straight(np.array([0.0, 0.0]), np.array([-10.0, 0.0]))
    s = Unicycle2DState(0.5, 0.0, 0.0)  # heading +x, path goes -x
    v, u, _ = pure_pursuit_2d(s, path, P)
    assert abs(u) == pytest.approx(P.u_max * np.tanh(MU * np.pi), rel=1e-6)
    assert u > 0.0  # documented tie-break at exactly pi


def test_pure_pursuit_cross_track_decays():
    """Offset start: cross-track error decays and ends below 0.05 m."""
    path = PiecewisePath.straight(np.zeros(2), np.array([30.0, 0.0]))
    state = Unicycle2DState(0.0, 1.5, 0.0)
    lim = LimitSet(v_max=P.v_max, u_max=P.u_max)
    errs = []
    for _ in range(250):
        v, u, _ = pure_pursuit_2d(state, path, P)
        for _ in range(10):
            state = step_unicycle(state, v, u, 0.01, limits=lim)
        errs.append(abs(state.y))
    # monotone decay after the first crossing of the path
    first_cross = next(i for i, e in enumerate(errs) if e < 0.05)
    assert errs[-1] < 0.05
    tail = errs[first_cross:]
    assert max(tail) < 0.6  # no divergence after capture


def test_detect_trap_all_clear():
    assert not detect_trap(np.full(181, 10.0), threshold=2.0)


def test_detect_trap_all_blocked():
    assert detect_trap(np.full(181, 0.5), threshold=2.0)


def test_detect_trap_one_clear_ray_at_edge():
    r = np.full(181, 0.5)
    r[-1] = 10.0
    assert not detect_trap(r, threshold=2.0)


def test_detect_trap_empty_scan_raises():
    with pytest.raises(ValueError):
        detect_trap(np.array([]), 1.0)


def test_escape_goal_single_clear_direction():
    angles = np.array([0.0, np.pi / 4, np.pi / 2])
    ranges = np.array([0.5, 10.0, 0.5])
    rng = np.random.default_rng(0)
    p = escape_goal(np.zeros(2), angles, ranges, 2.0, 3.0, rng)
    assert np.allclose(p, 3.0 * np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)]))


def test_escape_goal_zero_distance():
    angles = np.array([0.2])
    ranges = np.array([10.0])
    p = escape_goal(np.array([1.0, 2.0]), angles, ranges, 2.0, 0.0,
                    np.random.default_rng(1))
    assert np.allclose(p, [1.0, 2.0])


def test_escape_goal_deterministic_under_seed():
    angles = np.linspace(-1.0, 1.0, 41)
    ranges = np.where(np.abs(angles) > 0.5, 10.0, 0.1)  # two clear sectors
    a = escape_goal(np.zeros(2), angles, ranges, 2.0, 3.0, np.random.default_rng(9))
    b = escape_goal(np.zeros(2), angles, ranges, 2.0, 3.0, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_escape_goal_no_clear_direction_raises():
    with pytest.raises(RuntimeError):
        escape_goal(np.zeros(2), np.array([0.0]), np.array([0.1]), 2.0, 3.0,
                    np.random.default_rng(0))


def _run_navigator(obstacle, bounds, seed=0, duration=60.0, hybrid=None, **params):
    """A hybrid2d run from the origin along +x to (14, 0) past one obstacle;
    the planner keeps d_safe + 0.2 from the known obstacles."""
    hybrid = hybrid or {}
    rrt = {"step": 1.5, "goal_bias": 0.2, "max_iters": 4000,
           "clearance": HybridParams(**hybrid).d_safe + 0.2, "resolution": 0.05}
    return run({"version": 1, "seed": seed, "kind": "hybrid2d", "duration": duration,
                "start": [0.0, 0.0], "goal": [14.0, 0.0],
                "world": {"bounds": bounds, "obstacles": [obstacle]},
                "params": {"hybrid": hybrid, "rrt": rrt, **params}})


UNKNOWN_DISC = {"type": "sphere", "center": [6.0, 0.0], "radius": 1.0, "known": False}


def test_execution_r1_switch():
    """Approaching an unknown obstacle head-on trips R1 into reactive mode."""
    res = _run_navigator(UNKNOWN_DISC, [[-2.0, -8.0], [16.0, 8.0]])
    kinds = [e["kind"] for e in res.log.events]
    assert "R1" in kinds
    assert "R2" in kinds
    assert res.metrics["min_d_obs"] >= P.d_safe
    assert res.metrics["goal_reached"]


def test_execution_single_r1_per_encounter():
    res = _run_navigator(UNKNOWN_DISC, [[-2.0, -8.0], [16.0, 8.0]])
    r1s = [e for e in res.log.events if e["kind"] == "R1"]
    assert len(r1s) == 1


def test_execution_trap_triggers_single_replan():
    """A wide blocking wall ahead raises exactly one replan with an escape
    goal, and the vehicle still reaches the goal."""
    wall = {"type": "wall", "vertices": [[8.0, -6.0], [8.0, 6.0]], "known": False}
    # trap scan tuned so full blockage is seen before R1 fires (range C)
    hybrid = {"fov_half_angle": float(np.deg2rad(60)), "d_sensing": 6.0}
    res = _run_navigator(wall, [[-2.0, -12.0], [20.0, 12.0]], seed=3, duration=120.0,
                         hybrid=hybrid, trap_range=4.5)
    assert res.metrics["replan_count"] == 1
    assert res.metrics["goal_reached"]
    assert res.metrics["min_d_obs"] >= HybridParams(**hybrid).d_safe


def test_reactive_mode_reads_a_nan_distance_for_a_nan_state(monkeypatch):
    """In REACTIVE mode the followed wall's distance from a NaN position is
    NaN, not +inf ("clear"), and it is what the tick's d and d_dot hold.
    Pure pursuit's path lookup, which runs after the read, refuses the NaN
    position with the FloatingPointError a NaN state raises in every kind."""
    reads, distance = [], World.distance

    def recorded(world, i, p, t=0.0):
        reads.append(distance(world, i, p, t)[0])
        return distance(world, i, p, t)

    world = World([Wall(np.array([[5.0, -3.0], [5.0, 3.0]]), known=False),
                   Sphere(np.array([20.0, 9.0]), 1.0)])
    nav = HybridNavigator(P, world, np.array([10.0, 0.0]), RrtParams(),
                          np.random.default_rng(0))
    nav.control(Unicycle2DState(0.0, 0.0, 0.0), 0.0, 0)
    nav.mode, nav._reactive_obstacle = NavMode.REACTIVE, 0
    monkeypatch.setattr(World, "distance", recorded)
    with pytest.raises(FloatingPointError):
        nav.control(Unicycle2DState(np.nan, 0.0, 0.0), 0.1, 1)
    assert len(reads) == 1 and reads[0] != reads[0]
    assert nav._d_prev != nav._d_prev
