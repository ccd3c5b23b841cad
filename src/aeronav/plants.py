"""Plant models and fixed-step RK4 integrators.

Three plants are used across the engine: a planar unicycle, a 3D
nonholonomic point (heading-vector or azimuth/flight-path-angle form) and a
6-DOF quadrotor.  States are immutable values; each step returns a new state.
Plants integrate at a fixed dt (0.01 s by default); controllers may run at
coarser multiples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import (heading_from_angles, orthonormalize, skew, unit,
                   wrap_angle)

PLANT_DT = 0.01
GRAVITY = 9.81


@dataclass(frozen=True)
class LimitSet:
    """Actuation limits.  All strictly positive."""
    v_max: float = 1.0
    u_max: float = 1.5          # angular rate bound [rad/s]
    a_max: float = 10.0
    thrust_min: float = 0.0     # mass-normalized [m/s^2]
    thrust_max: float = 30.0

    def __post_init__(self):
        if min(self.v_max, self.u_max, self.a_max, self.thrust_max) <= 0.0:
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

    @classmethod
    def hover(cls, p=(0.0, 0.0, 0.0)) -> "QuadrotorState":
        return cls(np.asarray(p, dtype=float), np.zeros(3), np.eye(3), np.zeros(3))


def _check_finite(arrs, tick: int | None = None):
    for a in arrs:
        if not np.isfinite(a).all():
            where = "" if tick is None else f" at tick {tick}"
            raise FloatingPointError(f"non-finite state or input{where}")


def rk4(f, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_unicycle(state: Unicycle2DState, v: float, u: float, dt: float = PLANT_DT,
                  limits: LimitSet | None = None, tick: int | None = None) -> Unicycle2DState:
    """RK4 step of xdot = V cos(th), ydot = V sin(th), thdot = u."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if limits is not None:
        v = float(np.clip(v, 0.0, limits.v_max))
        u = float(np.clip(u, -limits.u_max, limits.u_max))
    _check_finite([np.array([state.x, state.y, state.theta, v, u])], tick)
    y = np.array([state.x, state.y, state.theta])

    def f(s):
        return np.array([v * np.cos(s[2]), v * np.sin(s[2]), u])

    x, yy, th = rk4(f, y, dt)
    return Unicycle2DState(float(x), float(yy), wrap_angle(th))


def step_heading3d(state: Heading3DState, v: float, u: np.ndarray, dt: float = PLANT_DT,
                   limits: LimitSet | None = None, tick: int | None = None) -> Heading3DState:
    """RK4 step of pdot = V a, adot = u with u constrained to a's orthogonal
    complement; heading renormalized after the step."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    u = np.asarray(u, dtype=float)
    if limits is not None:
        v = float(np.clip(v, 0.0, limits.v_max))
        un = np.linalg.norm(u)
        if un > limits.u_max:
            u = u * (limits.u_max / un)
    _check_finite([state.p, state.a, u, np.array([v])], tick)
    y = np.concatenate([state.p, state.a])

    def f(s):
        a = s[3:]
        # remove any spurious along-heading component so a.u = 0 holds exactly
        ut = u - np.dot(u, a) / max(np.dot(a, a), 1e-12) * a
        return np.concatenate([v * a, ut])

    out = rk4(f, y, dt)
    return Heading3DState(out[:3], unit(out[3:]))


def step_angles3d(state: Angle3DState, v: float, u_beta: float, u_alpha: float,
                  dt: float = PLANT_DT, limits: LimitSet | None = None,
                  tick: int | None = None) -> Angle3DState:
    """RK4 step of the azimuth/flight-path-angle kinematics."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if limits is not None:
        v = float(np.clip(v, 0.0, limits.v_max))
        u_beta = float(np.clip(u_beta, -limits.u_max, limits.u_max))
        u_alpha = float(np.clip(u_alpha, -limits.u_max, limits.u_max))
    _check_finite([state.p, np.array([state.beta, state.alpha, v, u_beta, u_alpha])], tick)
    y = np.array([*state.p, state.beta, state.alpha])

    def f(s):
        b, al = s[3], s[4]
        ca = np.cos(al)
        return np.array([v * np.cos(b) * ca, v * np.sin(b) * ca, v * np.sin(al),
                         u_beta, u_alpha])

    out = rk4(f, y, dt)
    return Angle3DState(out[:3], wrap_angle(out[3]), wrap_angle(out[4]))


@dataclass(frozen=True)
class QuadrotorParams:
    inertia: np.ndarray = None  # body inertia, kg m^2
    g: float = GRAVITY

    def __post_init__(self):
        if self.inertia is None:
            object.__setattr__(self, "inertia", np.diag([0.01, 0.01, 0.018]))


def step_quadrotor(state: QuadrotorState, thrust: float, torque: np.ndarray,
                   dt: float = PLANT_DT, params: QuadrotorParams | None = None,
                   limits: LimitSet | None = None, tick: int | None = None) -> QuadrotorState:
    """RK4 step of the quadrotor rigid-body model with mass-normalized thrust:
    vdot = -g e3 + T R e3, Rdot = R [w]_x, Jwdot = -w x Jw + tau."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    params = params or QuadrotorParams()
    torque = np.asarray(torque, dtype=float)
    if limits is not None:
        thrust = float(np.clip(thrust, limits.thrust_min, limits.thrust_max))
    _check_finite([state.p, state.v, state.R, state.omega, torque, np.array([thrust])], tick)
    j = params.inertia
    j_inv = np.linalg.inv(j)
    e3 = np.array([0.0, 0.0, 1.0])

    y = np.concatenate([state.p, state.v, state.R.reshape(9), state.omega])

    def f(s):
        v = s[3:6]
        r = s[6:15].reshape(3, 3)
        w = s[15:18]
        dp = v
        dv = -params.g * e3 + thrust * (r @ e3)
        dr = (r @ skew(w)).reshape(9)
        dw = j_inv @ (-np.cross(w, j @ w) + torque)
        return np.concatenate([dp, dv, dr, dw])

    out = rk4(f, y, dt)
    r_new = orthonormalize(out[6:15].reshape(3, 3))
    return QuadrotorState(out[0:3], out[3:6], r_new, out[15:18])


# ---------------------------------------------------------------------------
# Batch stepping for the flocking plant (positions/orientations/velocities of
# all n agents advanced at once; controls held over the step).
# ---------------------------------------------------------------------------

def flock_direction(theta: np.ndarray) -> np.ndarray:
    """Unit direction of orientation angles theta, (m-1,) or (n, m-1): the
    heading's [cos, sin] for m = 2, [cos(th)cos(psi), cos(th)sin(psi), sin(th)]
    for m = 3 with theta = [flight path th, heading psi]."""
    c, s = np.cos(theta), np.sin(theta)
    if c.shape[-1] == 1:
        return np.concatenate((c, s), axis=-1)
    out = np.empty(c.shape[:-1] + (3,))
    out[..., 0] = c[..., 0] * c[..., 1]
    out[..., 1] = c[..., 0] * s[..., 1]
    out[..., 2] = s[..., 0]
    return out


def step_flock_batch(q: np.ndarray, theta: np.ndarray, nu: np.ndarray,
                     tau: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One RK4 step of n copies of the nonholonomic acceleration-level model.

    q: (n, m) positions; theta: (n, m-1) orientation angles; nu: (n, m) stacked
    [v, Omega]; tau: (n, m) stacked [a, alpha] accelerations (held constant).
    The direction vector is `flock_direction(theta)`.  RK4 runs on the
    packed (n, 3m - 1) state [q | theta | nu].
    """
    _check_finite([q, theta, nu, tau])
    m = q.shape[1]
    dy_nu = np.empty((len(q), 3 * m - 1))  # every derivative's nu part is tau
    dy_nu[:, 2 * m - 1:] = tau

    def f(y):
        dy = dy_nu.copy()
        dy[:, :m] = y[:, 2 * m - 1:2 * m] * flock_direction(y[:, m:2 * m - 1])
        dy[:, m:2 * m - 1] = y[:, 2 * m:]
        return dy

    y1 = rk4(f, np.hstack((q, theta, nu)), dt)
    return y1[:, :m], wrap_angle(y1[:, m:2 * m - 1]), y1[:, 2 * m - 1:]
