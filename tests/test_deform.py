import numpy as np
import pytest

from aeronav import deform as deform_mod
from aeronav.bezier import PiecewisePath, QuinticBezier
from aeronav.deform import (K_ALPHA, K_BETA, MAX_DEFORMS_PER_CHECK, REF_C1_V,
                            REF_C2_V, DeformNavigator, DeformParams,
                            RefModelState, deform, deform_until_safe,
                            find_unsafe, ref_acceleration, ref_velocity,
                            reference_model_step, track_kinematic)
from aeronav.harness.runner import run
from aeronav.plants import Angle3DState, LimitSet, step_angles3d
from aeronav.world import Cylinder, Sphere, World


def straight_path(length=20.0):
    return PiecewisePath.straight(np.zeros(3), np.array([length, 0.0, 0.0]), 1.0)


def _worst_clearance(path, world):
    return float(world.batch_distance(path.sample(per_segment=100)[1], 0.0).min())


def test_find_unsafe_none_when_clear():
    w = World([Sphere(np.array([10.0, 8.0, 0.0]), 1.0)])
    assert find_unsafe(straight_path(), w, 0.5) is None


def test_find_unsafe_on_path_crossing():
    w = World([Sphere(np.array([10.0, 0.0, 0.0]), 1.0)])
    hit = find_unsafe(straight_path(), w, 0.5)
    assert hit is not None
    assert hit.d == pytest.approx(0.0)  # the anchor lies inside the sphere
    assert abs(hit.s - 10.0) < 1.1  # crossing region


def test_path_tables_built_once_per_resolution(monkeypatch):
    """The control tick's closest_param / find_unsafe / closest_param
    sequence evaluates each segment once per sample resolution, and a
    lookahead costs a single point evaluation."""
    calls = []
    point = QuinticBezier.point

    def counted(seg, s):
        calls.append(id(seg))
        return point(seg, s)

    monkeypatch.setattr(QuinticBezier, "point", counted)
    path = straight_path()
    w = World([Sphere(np.array([10.0, 0.0, 0.0]), 1.0)])
    s = path.closest_param(np.array([3.0, 0.2, 0.0]))
    assert find_unsafe(path, w, 0.5, s_from=s) is not None
    path.closest_param(np.array([3.1, 0.2, 0.0]))
    assert sorted(calls) == sorted(2 * [id(seg) for seg in path.segments])
    path.point_ahead(s, 1.0)
    assert len(calls) == 2 * path.n_segments + 1


def test_find_unsafe_offset_distance_matches_oracle():
    w = World([Sphere(np.array([10.0, 1.3, 0.0]), 1.0)])
    hit = find_unsafe(straight_path(), w, d_safe=0.5, resolution=0.02)
    assert hit is not None
    assert hit.d == pytest.approx(0.3, abs=0.02)


def test_deform_moves_away_and_increases_clearance():
    """Obstacle just left of the path: the deformed control point moves right
    (away), verified by the before/after clearance comparison."""
    w = World([Sphere(np.array([10.0, 1.0, 0.0]), 0.8)])
    path = straight_path()
    params = DeformParams(safety_factor=0.8, d_safe=0.7)
    hit = find_unsafe(path, w, params.d_safe)
    before = _worst_clearance(path, w)
    assert before == pytest.approx(0.2, abs=0.02)
    new_path, _ = deform(path, hit, params)
    assert _worst_clearance(new_path, w) > before
    # the moved control point went to -y (away from the +y obstacle)
    deformed_pts = new_path.sample(per_segment=100)[1]
    assert np.min(deformed_pts[:, 1]) < -0.3


def test_deform_overlapping_obstacle_resolves_within_cap():
    w = World([Sphere(np.array([10.0, 0.4, 0.0]), 0.8)])
    params = DeformParams(safety_factor=0.8, d_safe=0.7)
    path, n = deform_until_safe(straight_path(), w, params)
    assert n <= MAX_DEFORMS_PER_CHECK
    assert find_unsafe(path, w, params.d_safe) is None


def test_deform_until_safe_terminates_within_cap():
    w = World([Cylinder(np.array([10.0, 0.0, -5.0]), np.array([0, 0, 1.0]),
                        radius=1.0, height=10.0)])
    params = DeformParams(safety_factor=0.6, d_safe=0.5)
    path, n = deform_until_safe(straight_path(), w, params)
    assert n <= MAX_DEFORMS_PER_CHECK
    assert find_unsafe(path, w, params.d_safe) is None


def test_deform_zero_gamma_identity_geometry():
    w = World([Sphere(np.array([10.0, 0.2, 0.0]), 0.5)])
    path = straight_path()
    params = DeformParams(safety_factor=0.0, d_safe=0.5)
    hit = find_unsafe(path, w, params.d_safe)
    new_path, _ = deform(path, hit, params)
    _, pts = new_path.sample(per_segment=200)
    assert np.max(np.abs(pts[:, 1:])) < 1e-9  # still the straight line


def test_track_kinematic_zero_error_zero_inputs():
    path = straight_path()
    st = Angle3DState(np.array([5.0, 0.0, 0.0]), 0.0, 0.0)
    v, ub, ua = track_kinematic(st, path, DeformParams())
    assert ub == pytest.approx(0.0, abs=1e-9)
    assert ua == pytest.approx(0.0, abs=1e-9)
    assert v == DeformParams().v


def test_track_kinematic_bounded_by_gains():
    path = straight_path()
    p = DeformParams()
    rng = np.random.default_rng(0)
    for _ in range(100):
        st = Angle3DState(rng.uniform(-5, 5, 3), float(rng.uniform(-np.pi, np.pi)),
                          float(rng.uniform(-1.2, 1.2)))
        _, ub, ua = track_kinematic(st, path, p)
        assert abs(ub) <= K_BETA + 1e-12
        assert abs(ua) <= K_ALPHA + 1e-12


def test_track_kinematic_converges_from_offset():
    """Closed loop: offset start converges to the path with small
    steady-state cross-track error."""
    path = straight_path(40.0)
    p = DeformParams(v=1.0)
    st = Angle3DState(np.array([0.0, 1.5, -0.8]), 0.0, 0.0)
    lim = LimitSet(v_max=1.0, u_max=3.0)
    errs = []
    for _ in range(350):
        v, ub, ua = track_kinematic(st, path, p)
        for _ in range(10):
            st = step_angles3d(st, v, ub, ua, 0.01, limits=lim)
        errs.append(np.hypot(st.p[1], st.p[2]))
    assert errs[-1] < 0.05


def test_reference_model_at_rest_on_path_zero_inputs():
    path = straight_path()
    ref = RefModelState(np.zeros(3), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    out = reference_model_step(ref, path, v_d=0.0, v_max=2.0, dt=0.01)
    assert out.accel == pytest.approx(0.0, abs=1e-9)
    assert out.omega_beta == pytest.approx(0.0, abs=1e-9)


def test_reference_model_speed_step_monotone_and_bounded():
    path = straight_path(60.0)
    v_max = 2.0
    ref = RefModelState(np.zeros(3), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    vs, accs = [], []
    for _ in range(3000):
        ref = reference_model_step(ref, path, v_d=1.0, v_max=v_max, dt=0.01)
        vs.append(ref.v)
        accs.append(ref.accel)
    vs = np.array(vs)
    assert vs[-1] == pytest.approx(1.0, abs=0.05)
    assert np.max(vs) <= 1.0 + 0.05       # small overshoot only
    assert np.max(vs) <= v_max + 1e-9     # hard clamp respected
    # |a_r| bounded by the accumulated reaching-law authority
    assert np.max(np.abs(accs)) <= REF_C1_V + REF_C2_V


def test_reference_model_accel_finite_difference():
    path = straight_path(60.0)
    ref = RefModelState(np.zeros(3), 0.0, 0.0, 0.0, 0.0, 0.5, 0.0)
    states = [ref]
    for _ in range(400):
        states.append(reference_model_step(states[-1], path, 1.0, 2.0, 0.01))
    v = np.array([ref_velocity(s) for s in states])
    a = np.array([ref_acceleration(s) for s in states])
    fd = (v[2:] - v[:-2]) / 0.02
    assert np.max(np.linalg.norm(fd - a[1:-1], axis=1)) < 0.05


def _run_deform_scenario(obstacle, goal, gamma, duration=60.0, check_margin=0.35):
    """A deform3d run from (1, 1, 3) past one obstacle."""
    deform = {"safety_factor": gamma, "d_safe": 0.5, "v": 1.0, "check_margin": check_margin}
    return run({"version": 1, "seed": 0, "kind": "deform3d", "duration": duration,
                "start": [1.0, 1.0, 3.0], "goal": goal, "world": {"obstacles": [obstacle]},
                "params": {"deform": deform}})


def _count_calls(world, method):
    """The list that grows by one on each call of world.<method>."""
    calls = []
    query = getattr(world, method)

    def counted(*a, **k):
        calls.append(1)
        return query(*a, **k)
    setattr(world, method, counted)
    return calls


def test_clear_tick_scans_the_path_once():
    """A tick whose d_check scan finds the path clear does not scan it again
    at d_safe <= d_check: World.batch_distance runs once."""
    w = World([Sphere(np.array([10.0, 5.0, 0.0]), 1.0)])
    calls = _count_calls(w, "batch_distance")
    nav = DeformNavigator(DeformParams(), w, np.zeros(3), np.array([20.0, 0.0, 0.0]))
    nav.control(Angle3DState(np.zeros(3), 0.0, 0.0), 0.0, 0)
    assert nav.events == []
    assert len(calls) == 1


def test_capped_tick_scans_again_at_d_safe(monkeypatch):
    """When deform_until_safe stops at its cap the last deformation is
    unchecked, so the tick scans the path again."""
    monkeypatch.setattr(deform_mod, "MAX_DEFORMS_PER_CHECK", 1)
    w = World([Sphere(np.array([10.0, 0.2, 0.0]), 0.8)])
    calls = _count_calls(w, "batch_distance")
    nav = DeformNavigator(DeformParams(), w, np.zeros(3), np.array([20.0, 0.0, 0.0]))
    nav.control(Angle3DState(np.zeros(3), 0.0, 0.0), 0.0, 0)
    assert nav.events == [(0, "deform", {"count": 1})]
    assert len(calls) == 2


def test_capped_tick_hovers_at_a_static_blockage():
    """A static sphere on the line just ahead outlasts the capped deformation
    loop, so the tick parks the vehicle.  The check asks the world which
    obstacle blocks only there, at the worst path sample: one
    nearest_obstacle query per deformation anchor, one for the check's
    anchor and one for the id."""
    w = World([Sphere(np.array([3.5, 1.0, 3.0]), 1.5)])
    calls = _count_calls(w, "nearest_obstacle")
    start = np.array([1.0, 1.0, 3.0])
    nav = DeformNavigator(DeformParams(), w, start, np.array([21.0, 1.0, 3.0]))
    assert nav.control(Angle3DState(start, 0.0, 0.0), 0.0, 0) == (0.0, 0.0, 0.0)
    assert nav.events == [(0, "deform", {"count": MAX_DEFORMS_PER_CHECK}), (0, "hover", {})]
    assert len(calls) == MAX_DEFORMS_PER_CHECK + 2


def test_negative_check_margin_rejected():
    with pytest.raises(ValueError):
        DeformParams(check_margin=-0.1)


def test_static_cylinder_field_safe():
    """A cylinder blocking the straight route: deform-and-track keeps the
    safety margin and still reaches the goal."""
    cylinder = {"type": "cylinder", "base": [10.0, 10.0, 0.0], "axis": [0.0, 0.0, 1.0],
                "radius": 1.5, "height": 25.0}
    res = _run_deform_scenario(cylinder, [20.0, 20.0, 6.0], gamma=0.6, duration=80.0)
    assert res.metrics["goal_reached"]
    assert res.metrics["min_d_obs"] >= 0.5
    assert any(e["kind"] == "deform" for e in res.log.events)


def test_dynamic_sphere_intercept_safe():
    """A moving sphere crossing the route on an intercept course is avoided
    with the larger safety factors used in the dynamic cases."""
    for gamma in (1.5, 2.5):
        mover = {"type": "sphere", "center": [12.0, 20.3, 3.0], "radius": 1.0,
                 "motion": {"velocity": [0.0, -0.55, 0.0]}}
        res = _run_deform_scenario(mover, [20.0, 20.0, 3.0], gamma=gamma, duration=90.0,
                                   check_margin=0.8)
        assert res.metrics["goal_reached"]
        assert res.metrics["min_d_obs"] >= 0.5


def _fresh_table(path, per_segment):
    """(params, points, chord length) of the path evaluated from scratch on
    fresh copies of its segments, in the table's formula."""
    segs = [QuinticBezier(seg.control.copy()) for seg in path.segments]
    last = len(segs) - 1
    u = [np.linspace(0.0, 1.0, per_segment, endpoint=(i == last)) for i in range(len(segs))]
    params = np.concatenate([i + ui for i, ui in enumerate(u)])
    pts = np.vstack([seg.point(ui) for seg, ui in zip(segs, u)])
    chord = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return params, pts, np.concatenate([[0.0], np.cumsum(chord)])


def test_deformed_path_tables_equal_fresh_evaluation(monkeypatch):
    """Deformed paths reuse the samples of the segments they keep; each
    table of every path along a chain of deformations, one of them
    re-subdivided, equals a table evaluated from scratch, bit for bit."""
    resubdivided = []
    resubdivide = deform_mod._resubdivide_window

    def counted(*a):
        resubdivided.append(a[1:])
        return resubdivide(*a)

    monkeypatch.setattr(deform_mod, "_resubdivide_window", counted)
    w = World([Sphere(np.array([6.0, 0.4, 0.0]), 1.0),
               Sphere(np.array([12.0, -0.6, 0.3]), 1.2)])
    params = DeformParams()
    path, paths, prev = straight_path(), [], None
    for _ in range(6):
        path.closest_param(np.array([1.0, 0.1, 0.0]))
        paths.append(path)
        unsafe = find_unsafe(path, w, params.d_check)
        if unsafe is None:
            break
        path, prev = deform(path, unsafe, params, 0.0, prev)
    assert resubdivided and len(paths) >= 3
    for p in paths:
        for n in (20, 200):
            got, want = p._table(n)[:3], _fresh_table(p, n)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
