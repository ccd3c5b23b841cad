import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from aeronav import world
from aeronav.world import (Cylinder, Ellipsoid, Moving, QueryError,
                           SensingModel, Sphere, Wall, World, brentq,
                           sense_points)

SOLVER = settings(max_examples=300, deadline=None)


def level(ell, p):
    """The ellipsoid's implicit function h1(p) = |(p - c) / semi|^2 - 1:
    negative inside, zero on the surface."""
    return float(np.sum(((p - ell.center) / ell.semi) ** 2) - 1.0)


def distance(obstacle, p, t=0.0):
    """(distance, closest point) of one obstacle, read from a World's table."""
    return World([obstacle]).distance(0, p, t)


def test_sphere_offset_distance():
    w = World([Sphere(np.zeros(3), 2.0)])
    d, q, i = w.nearest_obstacle(np.array([3.0, 0.0, 0.0]))
    assert d == pytest.approx(1.0)
    assert np.allclose(q, [2.0, 0.0, 0.0])
    assert i == 0


def test_equidistant_tie_lowest_id():
    w = World([Sphere(np.array([-2.0, 0.0]), 1.0), Sphere(np.array([2.0, 0.0]), 1.0)])
    d, _, i = w.nearest_obstacle(np.zeros(2))
    assert d == pytest.approx(1.0)
    assert i == 0  # deterministic tie-break


def test_empty_world_raises():
    with pytest.raises(QueryError):
        World([]).nearest_obstacle(np.zeros(3))


def test_ellipsoid_distance_vs_surface_sampling_oracle():
    """Newton/Brent distance cross-checked against dense surface sampling."""
    ell = Ellipsoid(np.array([5.0, 3.0, -3.0]), np.array([5.0, 7.0, 2.0]))
    p = np.array([5.0, 12.0, 2.0])
    d, q = distance(ell, p)
    # oracle: brute-force sampling of the surface
    th = np.linspace(0, np.pi, 600)
    ph = np.linspace(0, 2 * np.pi, 1200)
    TH, PH = np.meshgrid(th, ph)
    pts = np.stack([5.0 * np.sin(TH) * np.cos(PH),
                    7.0 * np.sin(TH) * np.sin(PH),
                    2.0 * np.cos(TH)], axis=-1).reshape(-1, 3) + ell.center
    d_brute = np.min(np.linalg.norm(pts - p, axis=1))
    assert d == pytest.approx(d_brute, abs=1e-3)
    assert abs(level(ell, q)) < 1e-9  # the closest point is on the surface


def test_ellipsoid_inside_distance_zero():
    ell = Ellipsoid(np.zeros(3), np.array([2.0, 3.0, 1.0]))
    assert distance(ell, np.array([0.5, 0.5, 0.1]))[0] == 0.0


@pytest.mark.parametrize("center, semi", [([1.0, 2.0], [2.0, 1.0]),
                                          ([1.0, 2.0, -1.0], [2.0, 1.0, 3.0])])
def test_ellipsoid_center_maps_to_a_surface_point(center, semi):
    """At the exact center the direction anchor is the tip of the first
    semi-axis, on the surface in 2D as in 3D."""
    ell = Ellipsoid(np.array(center), np.array(semi))
    d, q = distance(ell, ell.center)
    assert d == 0.0
    assert level(ell, q) == 0.0
    tip = [semi[0]] + [0.0] * (len(semi) - 1)
    assert q.tolist() == [c + t for c, t in zip(center, tip)]


def _scipy_brentq(f, a, b, maxiter=100):
    return optimize.brentq(f, a, b, xtol=1e-12, rtol=8.9e-16, maxiter=maxiter)


def _outcome(solver, f, a, b, **kw):
    """The root as its exact repr, or the exception's type and message."""
    try:
        return repr(solver(f, a, b, **kw))
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _horner(coefs):
    def f(x):
        y = 0.0
        for c in coefs:
            y = y * x + c
        return y
    return f


coef = st.floats(-100.0, 100.0, allow_nan=False)
end = st.floats(-50.0, 50.0, allow_nan=False)


@SOLVER
@given(st.lists(coef, min_size=2, max_size=6), end, end, st.floats(0.0, 1.0))
def test_brentq_equals_scipy_bit_for_bit(coefs, a, b, at):
    """Polynomials with a root at the fraction `at` of the bracket (and
    maybe others): the same root to the last bit, or the same error (a
    same-sign bracket)."""
    coefs[-1] -= _horner(coefs)(a + at * (b - a))
    f = _horner(coefs)
    assert _outcome(brentq, f, a, b) == _outcome(_scipy_brentq, f, a, b)


@pytest.mark.parametrize("f, a, b, kind", [
    (lambda x: x * x + 1.0, -1.0, 1.0, "ValueError"),                      # same sign
    (lambda x: -1.0 if x < 1 / 3 else 1.0, -1e300, 1e300, "RuntimeError"),  # 100 steps
    (lambda x: math.nan if x > 0.5 else x - 0.3, 0.0, 1.0, "ValueError"),
    (lambda x: x, 0.0, 1.0, "root"),                                       # at an end
    (lambda x: x - 1.0, 0.0, 1.0, "root"),
])
def test_brentq_errors_and_ends_as_scipy(f, a, b, kind):
    got = _outcome(brentq, f, a, b)
    assert got == _outcome(_scipy_brentq, f, a, b)
    assert (got[0] if isinstance(got, tuple) else "root") == kind


@pytest.mark.parametrize("maxiter", [0, 1, 2, 3])
def test_brentq_iteration_limit_as_scipy(monkeypatch, maxiter):
    """Out of iterations on a cubic: the same RuntimeError as scipy's at
    the same limit."""
    monkeypatch.setattr(world, "_MAXITER", maxiter)
    f = lambda x: x ** 3 - 0.3
    got = _outcome(brentq, f, 0.0, 1.0)
    assert got == _outcome(_scipy_brentq, f, 0.0, 1.0, maxiter=maxiter)
    assert got[0] == "RuntimeError"


def _distance_reference(ell, p):
    """The ellipsoid distance outside the ellipsoid as it was computed with
    numpy's F(s) and scipy's brentq."""
    q = p - ell.center
    a2 = ell.semi ** 2

    def f(s):
        return float(np.sum((a2 * q / (a2 + s)) ** 2 / a2) - 1.0)

    hi = float(np.linalg.norm(q) * np.max(ell.semi) + np.max(a2))
    while f(hi) > 0.0:
        hi *= 2.0
    s = _scipy_brentq(f, 0.0, hi)
    qs = a2 * q / (a2 + s)
    return float(np.linalg.norm(q - qs)), qs + ell.center


axis_len = st.floats(0.05, 8.0)
unit_coord = st.floats(-1.0, 1.0)


@SOLVER
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
    st.lists(axis_len, min_size=n, max_size=n),
    st.lists(unit_coord, min_size=n, max_size=n))),
    st.sampled_from([1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.01, 1.5, 10.0, 1e4]))
def test_ellipsoid_distance_equals_numpy_and_scipy_form(shape, scale):
    """2D and 3D ellipsoids, points just off the surface and far from it:
    the same distance and closest point, bit for bit."""
    center, semi, u = (np.array(v) for v in shape)
    norm = np.linalg.norm(u)
    if norm < 1e-3:
        u, norm = np.eye(len(u))[0], 1.0
    ell = Ellipsoid(center, semi)
    p = center + semi * (u / norm) * scale
    if level(ell, p) <= 0.0:     # rounded onto or into the surface
        return
    d, q = distance(ell, p)
    d_ref, q_ref = _distance_reference(ell, p)
    assert (d, q.tolist()) == (d_ref, q_ref.tolist())


def test_ellipsoid_distance_equals_numpy_and_scipy_form_in_bulk():
    """The same on 5,000 seeded 2D and 3D queries: rare solver steps, such
    as a short step at the edge of its bound, show up only in a batch this
    large."""
    rng = np.random.default_rng(20240611)
    differ = 0
    for k in range(5000):
        semi = rng.uniform(0.05, 8.0, 2 + k % 2)
        ell = Ellipsoid(rng.normal(size=len(semi)), semi)
        p = ell.center + rng.normal(size=len(semi)) * rng.uniform(0.5, 40.0)
        if level(ell, p) <= 0.0:
            continue
        d, q = distance(ell, p)
        d_ref, q_ref = _distance_reference(ell, p)
        differ += (d, q.tolist()) != (d_ref, q_ref.tolist())
    assert differ == 0


def test_cylinder_distance():
    cyl = Cylinder(np.zeros(3), np.array([0, 0, 1.0]), radius=1.0, height=2.0)
    assert distance(cyl, np.array([2.0, 0.0, 1.0]))[0] == pytest.approx(1.0)
    assert distance(cyl, np.array([0.0, 0.0, 3.0]))[0] == pytest.approx(1.0)
    # corner region: diagonal of (radial gap, axial gap)
    d, _ = distance(cyl, np.array([2.0, 0.0, 3.0]))
    assert d == pytest.approx(np.sqrt(2.0))


def test_wall_distance_exact():
    wall = Wall(np.array([[0.0, 0.0], [4.0, 0.0]]))
    d, q = distance(wall, np.array([2.0, 3.0]))
    assert d == pytest.approx(3.0)
    assert np.allclose(q, [2.0, 0.0])


def test_point_segment_distance():
    """One segment: the foot of the perpendicular, or the nearer end."""
    wall = Wall(np.array([[0.0, 0.0], [1.0, 0.0]]))
    d, q = distance(wall, np.array([0.5, 1.0]))
    assert d == pytest.approx(1.0)
    assert np.allclose(q, [0.5, 0.0])
    d, q = distance(wall, np.array([2.0, 0.0]))
    assert d == pytest.approx(1.0)
    assert np.allclose(q, [1.0, 0.0])


def test_rigid_transform_invariance():
    """nearest_obstacle symmetric under a rigid transform of world + query."""
    from aeronav.geom import rodrigues_matrix
    rng = np.random.default_rng(4)
    rot = rodrigues_matrix(np.array([0, 0, 1.0]), 0.7)
    shift = np.array([1.0, -2.0, 0.5])
    c = rng.standard_normal(3)
    p = c + np.array([4.0, 1.0, 0.3])
    w1 = World([Sphere(c, 1.5)])
    w2 = World([Sphere(rot @ c + shift, 1.5)])
    d1 = w1.nearest_obstacle(p)[0]
    d2 = w2.nearest_obstacle(rot @ p + shift)[0]
    assert d1 == pytest.approx(d2, abs=1e-9)


def test_moving_obstacle_continuity_and_speed_bound():
    m = Moving(Sphere(np.zeros(2), 0.5), velocity=np.array([0.4, 0.2]))
    assert m.velocity_bound() == pytest.approx(np.hypot(0.4, 0.2))
    prev = None
    for t in np.linspace(0, 10, 400):
        off = m.velocity * t
        if prev is not None:
            step = np.linalg.norm(off - prev) / (10 / 399)
            assert step <= m.velocity_bound() + 1e-9
        prev = off


def test_sense_points_within_range_noiseless_subset():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5, 5, size=(500, 3))
    model = SensingModel(d_sensing=3.0, sigma=0.0)
    out = sense_points(np.zeros(3), pts, model)
    assert np.all(np.linalg.norm(out, axis=1) <= 3.0)
    # noiseless output is an exact subset
    as_set = {tuple(row) for row in pts}
    assert all(tuple(row) in as_set for row in out)


def test_sense_points_mask_equals_norm_mask_at_the_range():
    """The range mask is the `norm(axis=1) <= d_sensing` mask, also for points
    exactly at d_sensing: each threshold below is one point's own distance."""
    rng = np.random.default_rng(3)
    p = rng.uniform(-1.0, 1.0, 3)
    pts = rng.uniform(-6.0, 6.0, size=(2000, 3))
    d = np.linalg.norm(pts - p, axis=1)
    for r in d[:40]:
        for r_k in (r, np.nextafter(r, 0.0)):
            want = pts[np.linalg.norm(pts - p, axis=1) <= r_k]
            got = sense_points(p, pts, SensingModel(d_sensing=float(r_k)))
            assert np.array_equal(got, want)
    exact = np.array([[5.0, 0.0, 0.0], [0.0, -5.0, 0.0], [3.0, 4.0, 0.0], [0.0, 3.0, -4.0]])
    got = sense_points(np.zeros(3), exact, SensingModel(d_sensing=5.0))
    assert np.array_equal(got, exact)


def test_sense_points_full_coverage_when_range_large():
    pts = np.random.default_rng(1).uniform(-1, 1, size=(100, 3))
    model = SensingModel(d_sensing=10.0)
    assert len(sense_points(np.zeros(3), pts, model)) == 100


def test_sense_points_deterministic_under_seed():
    pts = np.random.default_rng(2).uniform(-1, 1, size=(200, 3))
    model = SensingModel(d_sensing=5.0, sigma=0.01)
    a = sense_points(np.zeros(3), pts, model, np.random.default_rng(42))
    b = sense_points(np.zeros(3), pts, model, np.random.default_rng(42))
    assert a.tobytes() == b.tobytes()


def test_raycast_disc():
    w = World([Sphere(np.array([5.0, 0.0]), 1.0)])
    r = w.raycast_2d(np.zeros(2), np.array([0.0, np.pi / 2, np.pi]), 20.0)
    assert r[0] == pytest.approx(4.0)
    assert r[1] == pytest.approx(20.0)
    assert r[2] == pytest.approx(20.0)


def test_raycast_wall():
    w = World([Wall(np.array([[2.0, -5.0], [2.0, 5.0]]))])
    r = w.raycast_2d(np.zeros(2), np.array([0.0, np.pi / 4]), 20.0)
    assert r[0] == pytest.approx(2.0)
    assert r[1] == pytest.approx(2.0 * np.sqrt(2.0))


def test_raycast_ellipsoid_unsupported():
    """Only discs and walls are raycast; an ellipsoid is refused, not
    silently approximated."""
    w = World([Ellipsoid(np.array([5.0, 0.0]), np.array([1.0, 2.0]))])
    with pytest.raises(QueryError):
        w.raycast_2d(np.zeros(2), np.array([0.0]), 20.0)
