"""Plant models and fixed-step RK4 integrators.

Three plants are used across the engine: a planar unicycle, a 3D
nonholonomic point (heading-vector or azimuth/flight-path-angle form) and a
6-DOF quadrotor.  States are immutable values; each step returns a new state.
Plants integrate at a fixed dt (0.01 s by default); controllers may run at
coarser multiples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import (cross3, heading_from_angles, norm, orthonormalize, skew, unit,
                   wrap_angle)

PLANT_DT = 0.01
GRAVITY = 9.81


@dataclass(frozen=True)
class LimitSet:
    """Actuation limits.  All strictly positive."""
    v_max: float = 1.0
    u_max: float = 1.5          # angular rate bound [rad/s]

    def __post_init__(self):
        if min(self.v_max, self.u_max) <= 0.0:
            raise ValueError("limits must be strictly positive")


@dataclass(frozen=True)
class Unicycle2DState:
    x: float
    y: float
    theta: float

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    @property
    def heading(self) -> np.ndarray:
        return np.array([np.cos(self.theta), np.sin(self.theta)])


@dataclass(frozen=True)
class Heading3DState:
    """3D nonholonomic state with a unit heading vector: ds/dt = V a, da/dt = u,
    a . u = 0."""
    p: np.ndarray
    a: np.ndarray

    @property
    def position(self) -> np.ndarray:
        return self.p

    @property
    def heading(self) -> np.ndarray:
        return self.a


@dataclass(frozen=True)
class Angle3DState:
    """3D nonholonomic state in azimuth/flight-path-angle form."""
    p: np.ndarray
    beta: float
    alpha: float

    @property
    def position(self) -> np.ndarray:
        return self.p

    @property
    def heading(self) -> np.ndarray:
        return heading_from_angles(self.beta, self.alpha)


@dataclass(frozen=True)
class QuadrotorState:
    p: np.ndarray        # position [m]
    v: np.ndarray        # velocity [m/s]
    R: np.ndarray        # body->world rotation
    omega: np.ndarray    # body rates [rad/s]


def _check_finite(arrs):
    for a in arrs:
        if not np.isfinite(a).all():
            raise FloatingPointError("non-finite state or input")


def rk4(f, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_finite_scalars(values):
    if not all(map(math.isfinite, values)):
        raise FloatingPointError("non-finite state or input")


def _clip(x, lo: float, hi: float) -> float:
    """np.clip(x, lo, hi) for a scalar, NaN kept: max and min return their
    first argument when a comparison with NaN is false."""
    return min(max(x, lo), hi)


def _rk4_float(y: float, k1: float, k2: float, k4: float, dt: float) -> float:
    """One component of `rk4`'s update, in its operation order, for a system
    whose derivative depends only on states with constant rates, so k3 = k2."""
    return y + (dt / 6.0) * (((k1 + 2.0 * k2) + 2.0 * k2) + k4)


def step_unicycle(state: Unicycle2DState, v: float, u: float, dt: float = PLANT_DT,
                  limits: LimitSet | None = None) -> Unicycle2DState:
    """RK4 step of xdot = V cos(th), ydot = V sin(th), thdot = u, on floats
    (the same result as `rk4` on arrays, bit for bit)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if limits is not None:
        v = float(_clip(v, 0.0, limits.v_max))
        u = float(_clip(u, -limits.u_max, limits.u_max))
    x, y, th = state.x, state.y, state.theta
    _check_finite_scalars((x, y, th, v, u))
    th2, th4 = th + (0.5 * dt) * u, th + dt * u
    c1, c2, c4 = math.cos(th), math.cos(th2), math.cos(th4)
    s1, s2, s4 = math.sin(th), math.sin(th2), math.sin(th4)
    return Unicycle2DState(float(_rk4_float(x, v * c1, v * c2, v * c4, dt)),
                           float(_rk4_float(y, v * s1, v * s2, v * s4, dt)),
                           wrap_angle(_rk4_float(th, u, u, u, dt)))


def step_heading3d(state: Heading3DState, v: float, u: np.ndarray, dt: float = PLANT_DT,
                   limits: LimitSet | None = None) -> Heading3DState:
    """RK4 step of pdot = V a, adot = u with u constrained to a's orthogonal
    complement; heading renormalized after the step."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    u = np.asarray(u, dtype=float)
    if limits is not None:
        v = float(np.clip(v, 0.0, limits.v_max))
        un = norm(u)
        if un > limits.u_max:
            u = u * (limits.u_max / un)
    _check_finite([state.p, state.a, u, np.array([v])])
    y = np.concatenate([state.p, state.a])

    def f(s):
        a = s[3:]
        # remove any spurious along-heading component so a.u = 0 holds exactly
        ut = u - np.dot(u, a) / max(np.dot(a, a), 1e-12) * a
        return np.concatenate([v * a, ut])

    out = rk4(f, y, dt)
    return Heading3DState(out[:3], unit(out[3:]))


def step_angles3d(state: Angle3DState, v: float, u_beta: float, u_alpha: float,
                  dt: float = PLANT_DT, limits: LimitSet | None = None) -> Angle3DState:
    """RK4 step of the azimuth/flight-path-angle kinematics, on floats in the
    operation order of `rk4` (the same result as the array form, bit for
    bit)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if limits is not None:
        v = float(_clip(v, 0.0, limits.v_max))
        u_beta = float(_clip(u_beta, -limits.u_max, limits.u_max))
        u_alpha = float(_clip(u_alpha, -limits.u_max, limits.u_max))
    px, py, pz = np.asarray(state.p, dtype=float).tolist()
    b, al = state.beta, state.alpha
    _check_finite_scalars((px, py, pz, b, al, v, u_beta, u_alpha))

    def f(b, al):
        ca = math.cos(al)
        return v * math.cos(b) * ca, v * math.sin(b) * ca, v * math.sin(al)

    k1 = f(b, al)
    k2 = f(b + (0.5 * dt) * u_beta, al + (0.5 * dt) * u_alpha)
    k4 = f(b + dt * u_beta, al + dt * u_alpha)
    p = np.array([_rk4_float(y0, *k, dt) for y0, *k in zip((px, py, pz), k1, k2, k4)])
    return Angle3DState(p, wrap_angle(_rk4_float(b, u_beta, u_beta, u_beta, dt)),
                        wrap_angle(_rk4_float(al, u_alpha, u_alpha, u_alpha, dt)))


QUAD_INERTIA = np.diag([0.01, 0.01, 0.018])   # body inertia, kg m^2
QUAD_INERTIA_INV = np.linalg.inv(QUAD_INERTIA)


def step_quadrotor(state: QuadrotorState, thrust: float, torque: np.ndarray,
                   dt: float = PLANT_DT) -> QuadrotorState:
    """RK4 step of the quadrotor rigid-body model with mass-normalized thrust:
    vdot = -g e3 + T R e3, Rdot = R [w]_x, Jwdot = -w x Jw + tau."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    torque = np.asarray(torque, dtype=float)
    _check_finite([state.p, state.v, state.R, state.omega, torque, np.array([thrust])])
    j, j_inv = QUAD_INERTIA, QUAD_INERTIA_INV
    e3 = np.array([0.0, 0.0, 1.0])

    y = np.concatenate([state.p, state.v, state.R.reshape(9), state.omega])

    def f(s):
        v = s[3:6]
        r = s[6:15].reshape(3, 3)
        w = s[15:18]
        dp = v
        dv = -GRAVITY * e3 + thrust * (r @ e3)
        dr = (r @ skew(w)).reshape(9)
        dw = j_inv @ (-cross3(w, j @ w) + torque)
        return np.concatenate([dp, dv, dr, dw])

    out = rk4(f, y, dt)
    r_new = orthonormalize(out[6:15].reshape(3, 3))
    return QuadrotorState(out[0:3], out[3:6], r_new, out[15:18])


# ---------------------------------------------------------------------------
# Batch stepping for the flocking plant (positions/orientations/velocities of
# all n agents advanced at once; controls held over the step).
# ---------------------------------------------------------------------------

def flock_direction(theta: np.ndarray) -> np.ndarray:
    """Unit direction [cos(th)cos(psi), cos(th)sin(psi), sin(th)] of
    orientation angles theta = [flight path th, heading psi], (..., 2) ->
    (..., 3)."""
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(c.shape[:-1] + (3,))
    out[..., 0] = c[..., 0] * c[..., 1]
    out[..., 1] = c[..., 0] * s[..., 1]
    out[..., 2] = s[..., 0]
    return out


def step_flock_batch(q: np.ndarray, theta: np.ndarray, nu: np.ndarray,
                     tau: np.ndarray, dt: float,
                     steps: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`steps` RK4 steps of n copies of the nonholonomic acceleration-level
    model, with the accelerations held.

    q: (n, 3) positions; theta: (n, 2) orientation angles; nu: (n, 3) stacked
    [v, Omega]; tau: (n, 3) stacked [a, alpha] accelerations.  The direction
    vector is `flock_direction(theta)`.  Each step equals `rk4` on the packed
    (n, 8) state [q | theta | nu] followed by `wrap_angle` of theta, bit
    for bit.  With tau held, every stage of nu is nu plus a constant and the
    angle stages depend only on theta and Omega, so the stages of all steps
    are computed at once; only the wrapped angles are a loop.  Raises
    FloatingPointError if an input, or the state after any step, is not
    finite.
    """
    _check_finite([q, theta, nu, tau])
    h2, h6 = 0.5 * dt, dt / 6.0
    two_tau = 2.0 * tau
    nus = np.empty((steps + 1,) + nu.shape)   # nu before and after each step
    nus[0] = nu
    nus[1:] = h6 * (((tau + two_tau) + two_tau) + tau)
    np.add.accumulate(nus, out=nus)
    nu1 = nus[:-1]
    nu2 = nu1 + h2 * tau                      # stages 2 and 3
    nu4 = nu1 + dt * tau
    om1, om2, om4 = nu1[..., 1:], nu2[..., 1:], nu4[..., 1:]
    two_om2 = 2.0 * om2
    dth = h6 * (((om1 + two_om2) + two_om2) + om4)
    ths = np.empty((steps + 1,) + theta.shape)
    ths[0] = theta
    for k in range(steps):   # wrap_angle, inline
        ths[k + 1] = -(np.mod(-(ths[k] + dth[k]) + np.pi, 2.0 * np.pi) - np.pi)
    th1 = ths[:-1]
    # speeds and angles of the four stages of every step
    v = np.empty((4,) + nu1[..., :1].shape)
    v[0], v[1], v[2], v[3] = nu1[..., :1], nu2[..., :1], nu2[..., :1], nu4[..., :1]
    angles = np.empty((4,) + th1.shape)
    angles[0] = th1
    np.add(th1, h2 * om1, out=angles[1])
    np.add(th1, h2 * om2, out=angles[2])
    np.add(th1, dt * om2, out=angles[3])
    kq = v * flock_direction(angles)
    qs = np.empty((steps + 1,) + q.shape)
    qs[0] = q
    two_k2, two_k3 = 2.0 * kq[1], 2.0 * kq[2]
    qs[1:] = h6 * (((kq[0] + two_k2) + two_k3) + kq[3])
    np.add.accumulate(qs, out=qs)
    _check_finite([qs, ths, nus])
    return qs[-1], ths[-1], nus[-1]
