import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeronav.bezier import (G_QUINTIC, PiecewisePath, QuinticBezier,
                            hermite_quintic, stitch_three_point)


def finite_diff(fn, s, h=1e-6):
    return (fn(s + h) - fn(s - h)) / (2 * h)


def test_bezier_endpoints_exact():
    rng = np.random.default_rng(0)
    cp = rng.standard_normal((6, 3))
    b = QuinticBezier(cp)
    assert np.allclose(b.point(0.0), cp[0], atol=1e-12)
    assert np.allclose(b.point(1.0), cp[5], atol=1e-12)


def test_bezier_derivative_matches_finite_difference():
    rng = np.random.default_rng(1)
    b = QuinticBezier(rng.standard_normal((6, 3)))
    for s in (0.1, 0.5, 0.9):
        fd = finite_diff(b.point, s)
        assert np.allclose(b.deriv(s), fd, atol=1e-6)


def test_stitch_collinear_equally_spaced_is_straight():
    p1, p2, p3 = np.zeros(3), np.array([1.0, 1.0, 0.0]), np.array([2.0, 2.0, 0.0])
    d = p2 - p1
    segs = stitch_three_point(p1, p2, p3, d, np.zeros(3), d, np.zeros(3))
    for seg in segs:
        for u in np.linspace(0, 1, 11):
            assert np.allclose(seg.deriv(u, 2), 0.0, atol=1e-9)
    # both segments lie on the line
    for u in np.linspace(0, 1, 11):
        pt = segs[0].point(u)
        assert abs(pt[0] - pt[1]) < 1e-10


def test_stitch_interpolation():
    rng = np.random.default_rng(3)
    p1, p2, p3 = rng.standard_normal((3, 3))
    segs = stitch_three_point(p1, p2, p3, rng.standard_normal(3), rng.standard_normal(3),
                              rng.standard_normal(3), rng.standard_normal(3))
    assert np.allclose(segs[0].point(0.0), p1, atol=1e-12)
    assert np.allclose(segs[0].point(1.0), p2, atol=1e-10)
    assert np.allclose(segs[1].point(0.0), p2, atol=1e-10)
    assert np.allclose(segs[1].point(1.0), p3, atol=1e-12)


def test_stitch_junction_derivatives_via_analytic_derivative():
    """Junction mismatch of the analytic derivatives stays below 1e-10."""
    rng = np.random.default_rng(4)
    for _ in range(50):
        p1, p2, p3 = rng.standard_normal((3, 3)) * 3
        ds, dds, de, dde = rng.standard_normal((4, 3))
        segs = stitch_three_point(p1, p2, p3, ds, dds, de, dde)
        assert np.max(np.abs(segs[0].deriv(1.0) - segs[1].deriv(0.0))) < 1e-10
        assert np.max(np.abs(segs[0].deriv(1.0, 2) - segs[1].deriv(0.0, 2))) < 1e-10
        # boundary data honored
        assert np.allclose(segs[0].deriv(0.0), ds, atol=1e-9)
        assert np.allclose(segs[0].deriv(0.0, 2), dds, atol=1e-9)
        assert np.allclose(segs[1].deriv(1.0), de, atol=1e-9)
        assert np.allclose(segs[1].deriv(1.0, 2), dde, atol=1e-9)


def test_degree5_exactness():
    """The stitched representation reproduces any degree-<=5 polynomial
    boundary data (here a cubic curve) exactly at the probe points."""
    def poly(s):
        return np.array([s, s ** 2 - 0.5 * s ** 3, 0.2 * s ** 3])

    def dpoly(s):
        return np.array([1.0, 2 * s - 1.5 * s ** 2, 0.6 * s ** 2])

    def ddpoly(s):
        return np.array([0.0, 2 - 3.0 * s, 1.2 * s])

    seg = hermite_quintic(poly(0.0), dpoly(0.0), ddpoly(0.0),
                          poly(1.0), dpoly(1.0), ddpoly(1.0))
    for u in np.linspace(0, 1, 21):
        assert np.allclose(seg.point(u), poly(u), atol=1e-10)


def test_path_c2_at_all_junctions():
    rng = np.random.default_rng(5)
    w = np.cumsum(rng.uniform(0.5, 1.5, size=(6, 3)), axis=0)
    path = PiecewisePath.from_waypoints(w)
    r1, r2 = path.junction_residuals()
    assert r1 < 1e-9
    assert r2 < 1e-9
    for i, wp in enumerate(w):
        assert np.allclose(path.point(float(i)), wp, atol=1e-9)


def curvature(path, s):
    """|P' x P''| / |P'|^3 from the path's analytic derivatives."""
    d1, d2 = path.deriv(s, 1), path.deriv(s, 2)
    if len(d1) == 2:
        d1, d2 = np.append(d1, 0.0), np.append(d2, 0.0)
    return float(np.linalg.norm(np.cross(d1, d2))) / np.linalg.norm(d1) ** 3


def test_two_waypoints_straight_zero_curvature():
    path = PiecewisePath.from_waypoints([np.zeros(3), np.array([3.0, 0.0, 0.0])])
    for s in np.linspace(0, 1, 11):
        assert curvature(path, s) == pytest.approx(0.0, abs=1e-12)


def test_nan_path_parameter_raises_floating_point_error():
    """A NaN parameter stops a lookup with the error a NaN state raises in
    the plants, and an infinite one is clamped to the path's end."""
    path = PiecewisePath.from_waypoints([np.zeros(3), np.array([3.0, 0.0, 0.0])])
    for lookup in (path.point, path.deriv):
        with pytest.raises(FloatingPointError):
            lookup(np.nan)
    assert np.array_equal(path.point(np.inf), path.point(1.0))


def test_replace_window_localism():
    """Segments outside the deformed window are bit-identical; the chain
    stays C2 in the raw segment parameter across the splice."""
    w = np.array([[0, 0, 0], [2, 0, 0], [4, 0, 0], [6, 0, 0], [8, 0, 0]], dtype=float)
    path = PiecewisePath.from_waypoints(w)
    new = path.replace_window(1, 3, np.array([4.0, 1.0, 0.0]))
    assert new.n_segments == path.n_segments  # 2 replaced by 2 here
    # retained segments identical to the last bit
    assert np.array_equal(new.segments[0].control, path.segments[0].control)
    assert np.array_equal(new.segments[3].control, path.segments[3].control)
    # deformed interior passes through the new control waypoint
    assert np.allclose(new.segments[1].point(1.0), [4.0, 1.0, 0.0], atol=1e-9)
    r1, r2 = new.junction_residuals()
    assert r1 < 1e-9
    assert r2 < 1e-9


def test_replace_window_straight_path_same_midpoint_identity():
    """Zero-magnitude deformation of a straight path leaves the geometry
    unchanged up to numerical identity."""
    path = PiecewisePath.straight(np.zeros(3), np.array([10.0, 0, 0]), segment_length=1.0)
    p_c = path.point(5.0)
    new = path.replace_window(3, 7, p_c)
    _, pts = new.sample(per_segment=500)
    assert np.max(np.abs(pts[:, 1:])) < 1e-9          # still on the line
    assert pts[:, 0].min() > -1e-9
    assert pts[:, 0].max() < 10.0 + 1e-9
    assert np.all(np.diff(pts[:, 0]) > -1e-9)          # no retrograde motion
    r1, r2 = new.junction_residuals()
    assert r1 < 1e-9 and r2 < 1e-9


def test_point_ahead_walks_arclength():
    path = PiecewisePath.from_waypoints([np.zeros(2), np.array([10.0, 0.0])])
    s, pt = path.point_ahead(0.0, 3.0)
    assert pt[0] == pytest.approx(3.0, abs=1e-9)


def test_curvature_against_finite_difference_oracle():
    w = np.array([[0, 0], [2, 0], [2, 2]], dtype=float)  # right-angle corner
    path = PiecewisePath.from_waypoints(w)
    for s in np.linspace(0.1, 1.9, 25):
        d1 = finite_diff(path.point, s)
        d2 = (path.point(s + 1e-4) - 2 * path.point(s) + path.point(s - 1e-4)) / 1e-8
        cross = abs(d1[0] * d2[1] - d1[1] * d2[0])
        k_fd = cross / np.linalg.norm(d1) ** 3
        assert curvature(path, s) == pytest.approx(k_fd, rel=1e-2, abs=1e-6)


def _reference_closest(path, p, per_segment=200):
    params, pts = path.sample(per_segment)
    return float(params[np.argmin(np.linalg.norm(pts - p, axis=1))])


LOOPS = {2: [[0.0, 0.0], [4.0, 0.0], [2.0, 3.0], [0.0, 0.0]],
         3: [[0.0, 0.0, 1.0], [4.0, 0.0, 2.0], [2.0, 3.0, 0.5], [0.0, 0.0, 1.0]]}


@pytest.mark.parametrize("dim", [2, 3])
def test_closest_param_equals_the_norm_argmin(dim):
    """The column-form scan picks the sample that argmin over
    norm(pts - p, axis=1) picks, the first of equals included: a closed
    loop's first and last samples are both exactly its start point, so a
    query beside the start is equidistant from the two."""
    path = PiecewisePath.from_waypoints(np.array(LOOPS[dim]))
    params, pts = path.sample()
    assert np.array_equal(pts[0], pts[-1])
    beside = pts[0] - 0.5
    assert _reference_closest(path, beside) == 0.0
    rng = np.random.default_rng(3)
    queries = [beside, *rng.uniform(-2.0, 5.0, (200, dim)),
               *(pts[rng.integers(len(pts), size=20)] + 1e-3)]
    for per_segment in (20, 200):
        for p in queries:
            assert path.closest_param(p, per_segment) == _reference_closest(path, p, per_segment)


def test_closest_param_memo_answers_by_value():
    """The remembered query is keyed on the point's value: an array mutated
    in place gets the new point's answer, alternating queries each get
    their own, and copies of the path answer as the original does."""
    import copy
    import pickle

    path = PiecewisePath.from_waypoints(np.array(LOOPS[3]))
    p1, p2 = np.array([4.5, 0.0, 2.0]), np.array([2.0, 3.5, 0.5])
    s1, s2 = _reference_closest(path, p1), _reference_closest(path, p2)
    assert s1 != s2
    p = p1.copy()
    assert path.closest_param(p) == s1
    p[:] = p2
    assert path.closest_param(p) == s2
    assert [path.closest_param(q) for q in (p1, p2, p1)] == [s1, s2, s1]
    assert path.closest_param(p1, per_segment=20) == _reference_closest(path, p1, 20)
    for twin in (copy.deepcopy(path), pickle.loads(pickle.dumps(path))):
        assert [twin.closest_param(q) for q in (p1, p2, p1)] == [s1, s2, s1]


TINY = np.finfo(float).tiny


@settings(max_examples=500, deadline=None)
@given(s=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, TINY]),
                   st.floats(0.0, TINY)),
       as_array=st.booleans(), dim=st.sampled_from([2, 3]))
def test_scalar_rows_equal_the_stacked_form(s, as_array, dim):
    """A 0-d parameter builds its power row without np.stack; the rows, and
    so both products, are the stacked form's bit for bit, subnormals too."""
    seg = QuinticBezier(np.random.default_rng(dim).standard_normal((6, dim)))
    q = np.asarray(s) if as_array else s
    a = np.asarray(s, dtype=float)
    t = np.stack([a ** 5, a ** 4, a ** 3, a ** 2, a, np.ones_like(a)], axis=-1)
    assert np.array_equal(seg.point(q), t @ G_QUINTIC @ seg.control)
    c = G_QUINTIC @ seg.control
    for order in (1, 2):
        c = c[:-1] * np.arange(len(c) - 1, 0, -1)[:, None]
        powers = np.stack([a ** k for k in range(len(c) - 1, -1, -1)], axis=-1)
        assert np.array_equal(seg.deriv(q, order), powers @ c)
