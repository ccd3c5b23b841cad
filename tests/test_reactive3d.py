import numpy as np
import pytest

from aeronav.geom import angle_between, unit
from aeronav.plants import Heading3DState, LimitSet, step_heading3d
from aeronav.reactive3d import (Mode3D, PlaneOfAvoidance, Reactive3DNavigator,
                                Reactive3DParams,
                                avoid_law_3d, build_plane, pp_omega,
                                tangent_to_ellipsoid)
from aeronav.world import Ellipsoid, World

# design parameters of the multi-obstacle study
P44 = Reactive3DParams(v_bar=1.0, omega_max=1.5, d0=1.0, d_safe=0.5,
                       big_c=2.5, eps=0.5, gamma=1.0, delta=0.5)


def test_params_validation():
    with pytest.raises(ValueError):
        Reactive3DParams(big_c=1.2, d0=1.0, eps=0.5)


def test_tangent_sphere_cone_half_angle_oracle():
    """Tangents from 2r away touch a sphere at asin(1/2) = 30 deg off the
    center line, for any feasible objective direction."""
    r = 1.5
    ell = Ellipsoid(np.zeros(3), np.full(3, r))
    p0 = np.array([2 * r, 0.0, 0.0])
    heading = unit(np.array([-1.0, 0.0, 0.0]))  # straight at the center
    tangent, touch = tangent_to_ellipsoid(p0, ell, heading)
    ang = angle_between(tangent, -unit(p0))
    assert ang == pytest.approx(np.deg2rad(30.0), abs=1e-6)
    # touch point on the surface, tangency residual ~ 0
    assert abs(ell.level(touch)) < 1e-9


def test_tangent_boresight_on_cone_is_feasible_optimum():
    """If the heading already lies on the tangent cone, the optimizer returns
    (numerically) that same direction."""
    r = 1.0
    ell = Ellipsoid(np.zeros(3), np.full(3, r))
    p0 = np.array([2.0, 0.0, 0.0])
    half = np.arcsin(r / 2.0)
    heading = np.array([-np.cos(half), np.sin(half), 0.0])
    tangent, _ = tangent_to_ellipsoid(p0, ell, heading)
    assert angle_between(tangent, heading) < 1e-4


def test_tangent_ellipsoid_residuals_and_grid_optimality():
    """Residual check |h1|,|h2| < 1e-6 plus a surface grid search: no grid
    tangent direction beats the returned optimum by more than 1e-3."""
    ell = Ellipsoid(np.array([5.0, 3.0, -3.0]), np.array([5.0, 7.0, 2.0]))
    p0 = np.array([5.0, 12.0, 2.0])
    a_dir = unit(np.array([0.2, -1.0, -0.3]))
    tangent, touch = tangent_to_ellipsoid(p0, ell, a_dir)

    # h1: on-surface residual
    assert abs(ell.level(touch)) < 1e-6
    # h2: tangency residual grad h1 . (P - P0) = 0 (normalized by scales)
    q = ell.to_body(touch)
    q0 = ell.to_body(p0)
    grad = 2.0 * q / ell.semi ** 2
    h2 = float(np.dot(grad, q - q0))
    assert abs(h2) < 1e-6

    # grid-search oracle over the whole surface
    th = np.linspace(1e-3, np.pi - 1e-3, 300)
    ph = np.linspace(0, 2 * np.pi, 600)
    TH, PH = np.meshgrid(th, ph)
    body = np.stack([ell.semi[0] * np.sin(TH) * np.cos(PH),
                     ell.semi[1] * np.sin(TH) * np.sin(PH),
                     ell.semi[2] * np.cos(TH)], axis=-1).reshape(-1, 3)
    grads = 2.0 * body / ell.semi ** 2
    feasible = np.abs(np.sum(grads * (body - q0), axis=1)) < 2e-2
    world_pts = body[feasible] @ ell.rotation.T + ell.center
    dirs = world_pts - p0
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    best_grid = np.max(dirs @ a_dir)
    ours = float(np.dot(tangent, a_dir))
    assert ours >= best_grid - 1e-3


def test_tangent_inside_raises():
    ell = Ellipsoid(np.zeros(3), np.full(3, 2.0))
    with pytest.raises(ValueError):
        tangent_to_ellipsoid(np.array([1.0, 0, 0]), ell, np.array([1.0, 0, 0]))


def test_avoid_law_on_surface_zero():
    plane = PlaneOfAvoidance(np.array([0, 0, 1.0]), np.zeros(3), 1.0, 0.0)
    u = avoid_law_3d(np.array([1.0, 0, 0]), P44.d0, 0.0, plane, P44)
    assert np.allclose(u, 0.0, atol=1e-12)


def test_avoid_law_perpendicular_to_heading():
    rng = np.random.default_rng(8)
    plane = PlaneOfAvoidance(np.array([0, 0, 1.0]), np.zeros(3), 1.0, 0.0)
    for _ in range(100):
        a = unit(np.array([rng.standard_normal(), rng.standard_normal(), 0.0]))
        u = avoid_law_3d(a, float(rng.uniform(0.2, 4)), float(rng.uniform(-1, 1)),
                         plane, P44)
        assert abs(np.dot(a, u)) < 1e-9
        assert np.linalg.norm(u) <= P44.omega_max + 1e-12


def test_avoid_law_degenerate_raises():
    plane = PlaneOfAvoidance(np.array([0, 0, 1.0]), np.zeros(3), 1.0, 0.0)
    with pytest.raises(ValueError):
        avoid_law_3d(np.array([0.0, 0, 1.0]), 1.0, 0.0, plane, P44)


def test_pp_omega_at_goal_zero():
    v0, om = pp_omega(np.array([1.0, 0, 0]), np.array([2.0, 0, 0]),
                      np.array([2.0, 0, 0]), P44)
    assert v0 == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(om, 0.0)


def test_pp_omega_heading_at_goal_no_turn():
    v0, om = pp_omega(np.array([1.0, 0, 0]), np.zeros(3), np.array([5.0, 0, 0]), P44)
    assert np.allclose(om, 0.0)
    assert v0 > 0.0


def test_pp_omega_speed_saturates():
    v0, _ = pp_omega(np.array([1.0, 0, 0]), np.zeros(3), np.array([1e6, 0, 0]), P44)
    assert v0 == pytest.approx(P44.v_bar, rel=1e-9)


def test_oa_omega_zero_on_surface_and_orthogonal():
    plane = PlaneOfAvoidance(np.array([0, 0, 1.0]), np.zeros(3), 1.0, 0.0)
    s_r = np.array([1.0, 0, 0])
    assert np.allclose(avoid_law_3d(s_r, P44.d0, 0.0, plane, P44), 0.0, atol=1e-12)
    om = avoid_law_3d(s_r, 2.0, -0.3, plane, P44)
    assert abs(np.dot(om, s_r)) < 1e-12


def test_goal_membership_of_plane():
    """With the heading aimed at the goal when the maneuver starts, the goal
    lies in the avoidance plane to 1e-9."""
    p = np.array([1.0, 2.0, 3.0])
    goal = np.array([7.0, -1.0, 5.0])
    a = unit(goal - p)
    tangent = unit(np.array([0.3, 0.8, 0.1]))
    plane = build_plane(p, a, tangent, p + 2.0 * a, 0.0)
    assert abs(plane.signed_distance(goal)) < 1e-9


def _closed_loop(world, goal, start, heading, params=P44, duration=80.0,
                 control_dt=0.05):
    nav = Reactive3DNavigator(params, world, goal, control_dt=control_dt)
    state = Heading3DState(np.asarray(start, dtype=float), unit(np.asarray(heading, dtype=float)))
    lim = LimitSet(v_max=params.v_bar, u_max=params.omega_max)
    t = 0.0
    min_d = np.inf
    plane_resid = 0.0
    n_sub = int(round(control_dt / 0.01))
    for tick in range(int(duration / control_dt)):
        v, u = nav.control(state, t, tick)
        for _ in range(n_sub):
            state = step_heading3d(state, v, u, 0.01, limits=lim)
            t += 0.01
        min_d = min(min_d, world.nearest_obstacle(state.p, t)[0])
        if nav.mode == Mode3D.AVOID:
            plane_resid = max(plane_resid, abs(nav.plane.signed_distance(state.p)))
        if np.linalg.norm(state.p - goal) < 0.3:
            break
    return nav, state, min_d, plane_resid


def test_single_ellipsoid_closed_loop_distance_bound():
    """Single-obstacle run with the reference design parameters: distance to
    the obstacle stays above 0.95*d0 and the maneuver stays in its plane."""
    ell = Ellipsoid(np.array([5.0, 3.0, -3.0]), np.array([5.0, 7.0, 2.0]))
    world = World([ell])
    start = np.array([5.0, 12.0, 2.0])
    goal = np.array([5.0, -6.0, 1.0])
    heading = unit(goal - start)
    nav, state, min_d, plane_resid = _closed_loop(world, goal, start, heading)
    assert np.linalg.norm(state.p - goal) < 0.3
    assert min_d >= 0.95 * P44.d0
    assert plane_resid < 1e-6
    kinds = [k for _, k in nav.events]
    assert "R1" in kinds and "R2" in kinds
