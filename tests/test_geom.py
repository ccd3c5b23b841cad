import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeronav import geom


def test_chi_zero():
    assert geom.chi(0.0, 1.0, 0.5) == 0.0


def test_chi_linear_branch():
    # piecewise definition evaluated directly: |0.3| <= 0.5 -> gamma*beta
    assert geom.chi(0.3, 1.0, 0.5) == pytest.approx(0.3)


def test_chi_saturated_branch():
    assert geom.chi(2.0, 1.0, 0.5) == pytest.approx(0.5)
    assert geom.chi(-2.0, 1.0, 0.5) == pytest.approx(-0.5)


def test_chi_odd_and_bounded():
    rng = np.random.default_rng(7)
    for _ in range(200):
        b = float(rng.uniform(-5, 5))
        g = float(rng.uniform(0.1, 3))
        d = float(rng.uniform(0.1, 2))
        assert geom.chi(-b, g, d) == pytest.approx(-geom.chi(b, g, d))
        assert abs(geom.chi(b, g, d)) <= d * g + 1e-12


def test_chi_rejects_bad_params():
    with pytest.raises(ValueError):
        geom.chi(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        geom.chi(1.0, 1.0, -1.0)


def test_rodrigues_quarter_turn():
    out = geom.rodrigues_rotate(geom.X3, geom.Z3, np.pi / 2)
    assert np.allclose(out, geom.Y3, atol=1e-12)


def test_rodrigues_identity():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(3)
    assert np.allclose(geom.rodrigues_rotate(v, geom.Z3, 0.0), v, atol=1e-12)


def test_rodrigues_half_turn_composes_two_quarter_turns():
    # oracle: composing two quarter turns must equal one half turn
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    once = geom.rodrigues_rotate(geom.rodrigues_rotate(v, geom.Z3, np.pi / 2),
                                 geom.Z3, np.pi / 2)
    direct = geom.rodrigues_rotate(v, geom.Z3, np.pi)
    assert np.allclose(once, direct, atol=1e-12)
    assert np.allclose(direct, -v, atol=1e-12)


def test_rodrigues_norm_preserved():
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.standard_normal(3) * rng.uniform(0.1, 10)
        axis = geom.unit(rng.standard_normal(3))
        ang = rng.uniform(-np.pi, np.pi)
        out = geom.rodrigues_rotate(v, axis, ang)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-9


def test_rodrigues_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        geom.rodrigues_rotate(geom.X3, np.array([0.0, 0.0, 2.0]), 0.1)


def test_rodrigues_near_unit_axis_normalized_with_warning():
    axis = np.array([0.0, 0.0, 1.0 + 5e-4])
    with pytest.warns(UserWarning):
        out = geom.rodrigues_rotate(geom.X3, axis, np.pi / 2)
    assert np.allclose(out, geom.Y3, atol=1e-9)


def test_steer_map_orthogonal_case():
    assert np.allclose(geom.steer_map(geom.X3, geom.Y3), geom.Y3, atol=1e-12)


def test_steer_map_parallel_gives_zero():
    assert np.allclose(geom.steer_map(geom.X3, geom.X3), np.zeros(3))
    assert np.allclose(geom.steer_map(geom.X3, 3.0 * geom.X3), np.zeros(3))


def test_steer_map_gram_schmidt_oracle():
    w2 = (geom.X3 + geom.Y3) / np.sqrt(2.0)
    out = geom.steer_map(geom.X3, w2)
    # oracle: Gram-Schmidt of w2 against x-hat then normalized
    gs = w2 - np.dot(geom.X3, w2) * geom.X3
    gs = gs / np.linalg.norm(gs)
    assert np.allclose(out, gs, atol=1e-12)
    assert np.allclose(out, geom.Y3, atol=1e-12)


def test_steer_map_properties_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        w1 = geom.unit(rng.standard_normal(3))
        w2 = rng.standard_normal(3)
        f = geom.steer_map(w1, w2)
        assert abs(np.dot(f, w1)) <= 1e-9
        n = np.linalg.norm(f)
        assert n == pytest.approx(1.0, abs=1e-9) or n == 0.0


def test_wrap_angle_range():
    vals = np.array([-3 * np.pi, -np.pi, -0.1, 0.0, 0.1, np.pi, 3 * np.pi, 7.0])
    w = geom.wrap_angle(vals)
    assert np.all(w > -np.pi - 1e-12)
    assert np.all(w <= np.pi + 1e-12)
    # pi maps to +pi (half-open interval (-pi, pi])
    assert geom.wrap_angle(np.pi) == pytest.approx(np.pi)
    assert geom.wrap_angle(-np.pi) == pytest.approx(np.pi)


def _wrap_angle_np(a: float) -> float:
    return float(-(np.mod(-np.asarray(a, dtype=float) + np.pi, 2.0 * np.pi) - np.pi))


WRAP_EDGES = [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 3 * np.pi, -3 * np.pi,
              1e300, -1e300, 5e-324, -5e-324, *(k * 2 * np.pi for k in range(-8, 9))]


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.floats(-20.0, 20.0), st.sampled_from(WRAP_EDGES)))
def test_wrap_angle_float_path_matches_numpy(a):
    """The float path gives the numpy expression's bits, sign of zero too."""
    got, want = geom.wrap_angle(a), _wrap_angle_np(a)
    assert type(got) is float
    assert got == want and np.signbit(got) == np.signbit(want)


def test_wrap_angle_float_path_edges():
    for a in WRAP_EDGES:
        got, want = geom.wrap_angle(a), _wrap_angle_np(a)
        assert got == want and np.signbit(got) == np.signbit(want), a


def test_wrap_angle_array_path_unchanged():
    vals = np.array(WRAP_EDGES)
    w = geom.wrap_angle(vals)
    assert isinstance(w, np.ndarray)
    want = np.array([_wrap_angle_np(a) for a in WRAP_EDGES])
    assert np.array_equal(w, want) and np.array_equal(np.signbit(w), np.signbit(want))


def test_angle_diff_shortest_arc():
    assert geom.angle_diff(0.1, -0.1) == pytest.approx(0.2)
    assert abs(geom.angle_diff(np.pi - 0.05, -np.pi + 0.05)) == pytest.approx(0.1)


def test_skew_vee_roundtrip():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(3)
    assert np.allclose(geom.vee(geom.skew(v)), v)
    w = rng.standard_normal(3)
    assert np.allclose(geom.skew(v) @ w, np.cross(v, w))

