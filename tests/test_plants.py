import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aeronav.geom import unit, wrap_angle
from aeronav.plants import (Heading3DState, LimitSet, QuadrotorState,
                            Unicycle2DState, flock_direction, rk4, step_angles3d,
                            step_heading3d, step_flock_batch, step_quadrotor,
                            step_unicycle, Angle3DState, GRAVITY)


def test_unicycle_straight():
    s = step_unicycle(Unicycle2DState(0.0, 0.0, 0.0), 1.0, 0.0, 0.1)
    assert s.x == pytest.approx(0.1)
    assert s.y == pytest.approx(0.0, abs=1e-15)


def test_heading3d_zero_speed():
    st = Heading3DState(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    out = step_heading3d(st, 0.0, np.array([0.0, 1.0, 0.0]), 0.1)
    assert np.allclose(out.p, 0.0)
    assert abs(np.linalg.norm(out.a) - 1.0) < 1e-9


def test_quadrotor_hover_balance():
    st = QuadrotorState(np.zeros(3), np.zeros(3), np.eye(3), np.zeros(3))
    out = step_quadrotor(st, GRAVITY, np.zeros(3), 0.01)
    assert np.allclose(out.v, 0.0, atol=1e-12)
    assert np.allclose(out.p, 0.0, atol=1e-12)


def test_rk4_order_on_circular_arc():
    """Halving dt cuts the position error on an analytic circular arc by >= 8x."""
    v, u, T = 1.0, 1.0, 2.0
    r = v / u

    def run(dt):
        s = Unicycle2DState(0.0, 0.0, 0.0)
        for _ in range(int(round(T / dt))):
            s = step_unicycle(s, v, u, dt)
        exact = np.array([r * np.sin(u * T), r * (1 - np.cos(u * T))])
        return np.linalg.norm(s.position - exact)

    e1, e2 = run(0.02), run(0.01)
    assert e1 / max(e2, 1e-300) >= 8.0


def test_nonholonomic_constraint_exact():
    """xdot sin(th) - ydot cos(th) = 0 evaluated from the model itself."""
    rng = np.random.default_rng(1)
    s = Unicycle2DState(0.0, 0.0, 0.3)
    for _ in range(100):
        v = float(rng.uniform(0, 1))
        xdot = v * np.cos(s.theta)
        ydot = v * np.sin(s.theta)
        assert abs(xdot * np.sin(s.theta) - ydot * np.cos(s.theta)) < 1e-9
        s = step_unicycle(s, v, float(rng.uniform(-1.5, 1.5)), 0.01)


def test_turning_radius_bound():
    """Simulated min turning radius >= V/u_max within 1%."""
    lim = LimitSet(v_max=1.0, u_max=1.5)
    s = Unicycle2DState(0.0, 0.0, 0.0)
    pts = [s.position]
    for _ in range(2000):
        s = step_unicycle(s, 1.0, 5.0, 0.01, limits=lim)  # commanded over the limit
        pts.append(s.position)
    pts = np.asarray(pts)
    # curvature from consecutive heading change over arclength
    d = np.diff(pts, axis=0)
    seg = np.linalg.norm(d, axis=1)
    ang = np.arctan2(d[:, 1], d[:, 0])
    dth = np.abs(np.diff(np.unwrap(ang)))
    radius = seg[1:] / np.maximum(dth, 1e-12)
    assert np.min(radius) >= (1.0 / 1.5) * 0.99


def test_so3_drift_hover_long_run(long_hover_state):
    st = long_hover_state
    err = np.max(np.abs(st.R.T @ st.R - np.eye(3)))
    assert err < 1e-6
    assert np.linalg.det(st.R) == pytest.approx(1.0, abs=1e-8)


def test_heading_stays_unit_under_turns():
    st = Heading3DState(np.zeros(3), unit(np.array([1.0, 0.2, -0.1])))
    rng = np.random.default_rng(0)
    for _ in range(1000):
        u = rng.standard_normal(3)
        u -= np.dot(u, st.a) * st.a
        st = step_heading3d(st, 1.0, u, 0.01)
        assert abs(np.linalg.norm(st.a) - 1.0) < 1e-9


def test_angles3d_matches_heading3d_for_planar_motion():
    # same physical motion integrated in both parameterizations
    st_a = Angle3DState(np.zeros(3), 0.0, 0.0)
    for _ in range(100):
        st_a = step_angles3d(st_a, 1.0, 0.3, 0.0, 0.01)
    st_h = Heading3DState(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    # omega for a pure azimuth rate: u = u_beta * (z x a)
    for _ in range(100):
        u = 0.3 * np.cross([0, 0, 1.0], st_h.a)
        st_h = step_heading3d(st_h, 1.0, u, 0.01)
    assert np.allclose(st_a.p, st_h.p, atol=1e-6)


def test_nan_input_raises():
    with pytest.raises(FloatingPointError):
        step_unicycle(Unicycle2DState(np.nan, 0.0, 0.0), 1.0, 0.0, 0.01)


@pytest.mark.parametrize("bad", ["q", "tau"])
def test_flock_batch_nan_raises(bad):
    arrs = {"q": np.zeros((3, 3)), "theta": np.zeros((3, 2)), "nu": np.zeros((3, 3)),
            "tau": np.zeros((3, 3))}
    arrs[bad][1, 2] = np.nan
    with pytest.raises(FloatingPointError):
        step_flock_batch(arrs["q"], arrs["theta"], arrs["nu"], arrs["tau"], 0.01)


def test_limits_validation():
    with pytest.raises(ValueError):
        LimitSet(v_max=-1.0)


# -- the float steppers against the array form they replaced ----------------

def _wrap_np(a):
    return float(-(np.mod(-np.asarray(a, dtype=float) + np.pi, 2.0 * np.pi) - np.pi))


def _ref_unicycle(state, v, u, dt, limits=None):
    """step_unicycle as array RK4 (`rk4` over a 3-element state)."""
    if limits is not None:
        v = float(np.clip(v, 0.0, limits.v_max))
        u = float(np.clip(u, -limits.u_max, limits.u_max))
    y = np.array([state.x, state.y, state.theta])
    x, yy, th = rk4(lambda s: np.array([v * np.cos(s[2]), v * np.sin(s[2]), u]), y, dt)
    return np.array([float(x), float(yy), _wrap_np(th)])


def _ref_angles3d(state, v, u_beta, u_alpha, dt, limits=None):
    """step_angles3d as array RK4 (`rk4` over a 5-element state)."""
    if limits is not None:
        v = float(np.clip(v, 0.0, limits.v_max))
        u_beta = float(np.clip(u_beta, -limits.u_max, limits.u_max))
        u_alpha = float(np.clip(u_alpha, -limits.u_max, limits.u_max))

    def f(s):
        b, al = s[3], s[4]
        ca = np.cos(al)
        return np.array([v * np.cos(b) * ca, v * np.sin(b) * ca, v * np.sin(al),
                         u_beta, u_alpha])

    out = rk4(f, np.array([*state.p, state.beta, state.alpha]), dt)
    return np.array([*out[:3], _wrap_np(out[3]), _wrap_np(out[4])])


ANGLE = st.floats(-10.0, 10.0)
COMMAND = st.floats(-5.0, 5.0)
DT = st.sampled_from([0.001, 0.01, 0.02, 0.05, 0.1])
LIMITS = st.sampled_from([None, LimitSet(v_max=1.0, u_max=1.5), LimitSet(v_max=2.5, u_max=0.3)])


@settings(max_examples=300, deadline=None)
@given(xy=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), th=ANGLE,
       v=COMMAND, u=COMMAND, dt=DT, limits=LIMITS)
def test_step_unicycle_matches_array_rk4(xy, th, v, u, dt, limits):
    state = Unicycle2DState(*xy, th)
    got = step_unicycle(state, v, u, dt, limits=limits)
    assert np.array_equal([got.x, got.y, got.theta], _ref_unicycle(state, v, u, dt, limits))


@settings(max_examples=300, deadline=None)
@given(p=st.tuples(*[st.floats(-1e3, 1e3)] * 3), beta=ANGLE, alpha=ANGLE,
       v=COMMAND, ub=COMMAND, ua=COMMAND, dt=DT, limits=LIMITS)
def test_step_angles3d_matches_array_rk4(p, beta, alpha, v, ub, ua, dt, limits):
    state = Angle3DState(np.array(p), beta, alpha)
    got = step_angles3d(state, v, ub, ua, dt, limits=limits)
    assert np.array_equal([*got.p, got.beta, got.alpha],
                          _ref_angles3d(state, v, ub, ua, dt, limits))


def _ref_flock(q, theta, nu, tau, dt, steps):
    """step_flock_batch as `steps` chained `rk4` steps on the packed
    [q | theta | nu] state, theta wrapped after each."""
    m = q.shape[1]

    def f(y):
        return np.hstack((y[:, 2 * m - 1:2 * m] * flock_direction(y[:, m:2 * m - 1]),
                          y[:, 2 * m:], tau))

    for _ in range(steps):
        y = rk4(f, np.hstack((q, theta, nu)), dt)
        q, theta, nu = y[:, :m], wrap_angle(y[:, m:2 * m - 1]), y[:, 2 * m - 1:]
    return q, theta, nu


# angles anywhere, and within 1e-3 of +-pi, where a slow rate wraps
FLOCK_ANGLE = st.one_of(st.floats(-np.pi, np.pi), st.floats(np.pi - 1e-3, np.pi),
                        st.floats(-np.pi, -np.pi + 1e-3))


@st.composite
def flock_holds(draw):
    """(q, theta, nu, tau, dt, steps) for n agents; rates and accelerations
    up to 1e3, enough to wrap within a hold."""
    n = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
    rate = st.floats(-scale, scale)
    return (draw(arrays(float, (n, 3), elements=st.floats(-100.0, 100.0))),
            draw(arrays(float, (n, 2), elements=FLOCK_ANGLE)),
            draw(arrays(float, (n, 3), elements=rate)),
            draw(arrays(float, (n, 3), elements=rate)),
            draw(st.sampled_from([0.001, 0.01, 0.05])), draw(st.integers(1, 12)))


@settings(max_examples=300, deadline=None)
@given(hold=flock_holds())
def test_step_flock_batch_matches_chained_rk4(hold):
    got = step_flock_batch(*hold)
    want = _ref_flock(*hold)
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def test_flock_batch_raises_when_a_middle_step_overflows():
    # finite inputs whose positions overflow in the 4th of 10 steps
    q, theta, nu = np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 3))
    tau = np.zeros((2, 3))
    tau[:, 0] = 1e307
    with np.errstate(over="ignore", invalid="ignore"):
        assert all(np.isfinite(a).all() for a in step_flock_batch(q, theta, nu, tau, 1.0, 3))
        with pytest.raises(FloatingPointError):
            step_flock_batch(q, theta, nu, tau, 1.0, 10)


LIM = LimitSet(v_max=1.0, u_max=1.5)


@pytest.mark.parametrize("limits", [None, LIM])
@pytest.mark.parametrize("which", range(2))
def test_unicycle_nan_command_raises(limits, which):
    cmd = [0.5, 0.1]
    cmd[which] = np.nan
    with pytest.raises(FloatingPointError):
        step_unicycle(Unicycle2DState(0.0, 0.0, 0.0), *cmd, 0.01, limits=limits)


@pytest.mark.parametrize("limits", [None, LIM])
@pytest.mark.parametrize("which", range(3))
def test_angles3d_nan_command_raises(limits, which):
    cmd = [0.5, 0.1, -0.1]
    cmd[which] = np.nan
    with pytest.raises(FloatingPointError):
        step_angles3d(Angle3DState(np.zeros(3), 0.0, 0.0), *cmd, 0.01, limits=limits)


def test_angles3d_nan_state_raises():
    with pytest.raises(FloatingPointError, match="non-finite state or input"):
        step_angles3d(Angle3DState(np.array([0.0, np.nan, 0.0]), 0.0, 0.0),
                      0.5, 0.0, 0.0, 0.01)


@pytest.mark.parametrize("cmd", [(np.inf, np.inf, -np.inf), (-np.inf, -np.inf, np.inf)])
def test_infinite_command_clipped_under_limits(cmd):
    st_u = Unicycle2DState(1.0, 2.0, 0.3)
    got = step_unicycle(st_u, cmd[0], cmd[1], 0.01, limits=LIM)
    assert np.array_equal([got.x, got.y, got.theta],
                          _ref_unicycle(st_u, cmd[0], cmd[1], 0.01, LIM))
    st_a = Angle3DState(np.array([1.0, 2.0, 3.0]), 0.3, -0.2)
    got = step_angles3d(st_a, *cmd, 0.01, limits=LIM)
    assert np.array_equal([*got.p, got.beta, got.alpha],
                          _ref_angles3d(st_a, *cmd, 0.01, LIM))
    with pytest.raises(FloatingPointError):
        step_unicycle(st_u, cmd[0], cmd[1], 0.01)
