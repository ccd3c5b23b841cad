"""Quadrotor flatness-based sliding-mode position control, geometric attitude
loop and the minimum-jerk / smooth-trapezoidal trajectory generators.

The position controller regards acceleration as a virtual input:

    sigma = e_v + K1 tanh(mu e_p)
    a_cmd = p_r'' + g e3 + mu K1 (e_v . sech^2(mu e_p)) + K2 tanh(mu sigma)

The sech^2 feedforward term makes sigma-dot = -K2 tanh(mu sigma) exact.  The
acceleration command maps to thrust and a desired attitude through the flat
outputs, tracked by a geometric torque loop.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import unit, vee
from .plants import GRAVITY, QuadrotorState, step_quadrotor

E3 = np.array([0.0, 0.0, 1.0])

# flatness-based tracking gains
K1 = np.diag([1.3, 1.3, 3.5])       # sliding-surface position gain
K2 = np.diag([2.0, 2.0, 4.0])       # reaching-law gain
MU = 1.0
K_R = 2.0                           # attitude loop (values are ours, tuned)
K_OMEGA = 0.35


@dataclass
class FlatSample:
    p: np.ndarray
    v: np.ndarray
    a: np.ndarray
    yaw: float = 0.0


def position_smc(state: QuadrotorState, ref: FlatSample) -> np.ndarray:
    """Commanded acceleration (world frame, gravity feedforward included)."""
    if not (np.all(np.isfinite(ref.p)) and np.all(np.isfinite(ref.v))
            and np.all(np.isfinite(ref.a))):
        raise ValueError("reference sample must be finite")
    e_p = ref.p - state.p
    e_v = ref.v - state.v
    sigma = e_v + K1 @ np.tanh(MU * e_p)
    a_cmd = ref.a + GRAVITY * E3 + K2 @ np.tanh(MU * sigma)
    return a_cmd + MU * (K1 @ (e_v * (1.0 / np.cosh(MU * e_p)) ** 2))


def flat_outputs_to_attitude_thrust(a_cmd: np.ndarray, yaw_ref: float,
                                    r_current: np.ndarray) -> tuple[float, np.ndarray]:
    """Thrust (projection of a_cmd on the current body z) and the desired
    attitude whose z-axis aligns with a_cmd at the reference yaw."""
    a_cmd = np.asarray(a_cmd, dtype=float)
    if np.linalg.norm(a_cmd) < 1e-9:
        raise ValueError("acceleration command must be nonzero")
    z_des = unit(a_cmd)
    x_c = np.array([np.cos(yaw_ref), np.sin(yaw_ref), 0.0])
    cross = np.cross(z_des, x_c)
    if np.linalg.norm(cross) < 1e-9:
        # degenerate yaw: a_cmd parallel to x_c; nudge the reference yaw
        x_c = np.array([np.cos(yaw_ref + 1e-6), np.sin(yaw_ref + 1e-6), 0.0])
        cross = np.cross(z_des, x_c)
    y_des = unit(cross)
    x_des = np.cross(y_des, z_des)
    r_des = np.column_stack((x_des, y_des, z_des))
    thrust = float(a_cmd @ (np.asarray(r_current, dtype=float) @ E3))
    return thrust, r_des


def attitude_torque(state: QuadrotorState, r_des: np.ndarray,
                    omega_des: np.ndarray) -> np.ndarray:
    """Geometric attitude loop: tau = -K_R e_R - K_w e_w with
    e_R = 0.5 (R_des^T R - R^T R_des)^vee."""
    e_r = 0.5 * vee(r_des.T @ state.R - state.R.T @ r_des)
    e_w = state.omega - np.asarray(omega_des, dtype=float)
    return -K_R * e_r - K_OMEGA * e_w


class QuadrotorTracker:
    """Full tracking stack: position SMC -> flat outputs -> attitude torque,
    stepping the plant at dt (position loop at every step = 100 Hz when
    dt = 0.01)."""

    def __init__(self, state: QuadrotorState):
        self.state = state

    def step(self, ref: FlatSample, dt: float) -> QuadrotorState:
        a_cmd = position_smc(self.state, ref)
        thrust, r_des = flat_outputs_to_attitude_thrust(a_cmd, ref.yaw, self.state.R)
        tau = attitude_torque(self.state, r_des, np.zeros(3))
        self.state = step_quadrotor(self.state, thrust, tau, dt)
        return self.state


# ---------------------------------------------------------------------------
# Minimum-jerk segments
# ---------------------------------------------------------------------------

def min_jerk_segment(s0, sf, t_f: float) -> np.ndarray:
    """Coefficients (k1, k2, k3) of the jerk-optimal quintic joining state
    s0 = (q, qdot, qddot) to sf over [0, t_f]."""
    if t_f <= 0.0:
        raise ValueError("t_f must be positive")
    q0, v0, a0 = (float(x) for x in s0)
    qf, vf, af = (float(x) for x in sf)
    m = np.array([
        [t_f ** 5 / 120.0, t_f ** 4 / 24.0, t_f ** 3 / 6.0],
        [t_f ** 4 / 24.0, t_f ** 3 / 6.0, t_f ** 2 / 2.0],
        [t_f ** 3 / 6.0, t_f ** 2 / 2.0, t_f],
    ])
    rhs = np.array([
        qf - (q0 + v0 * t_f + 0.5 * a0 * t_f ** 2),
        vf - (v0 + a0 * t_f),
        af - a0,
    ])
    return np.linalg.solve(m, rhs)


def min_jerk_eval(s0, k: np.ndarray, t) -> np.ndarray:
    """(q, qdot, qddot) of the minimum-jerk segment at time(s) t."""
    q0, v0, a0 = (float(x) for x in s0)
    k1, k2, k3 = (float(x) for x in k)
    t = np.asarray(t, dtype=float)
    q = k1 / 120.0 * t ** 5 + k2 / 24.0 * t ** 4 + k3 / 6.0 * t ** 3 \
        + 0.5 * a0 * t ** 2 + v0 * t + q0
    v = k1 / 24.0 * t ** 4 + k2 / 6.0 * t ** 3 + 0.5 * k3 * t ** 2 + a0 * t + v0
    a = k1 / 6.0 * t ** 3 + 0.5 * k2 * t ** 2 + k3 * t + a0
    return np.stack([q, v, a], axis=0)


def min_jerk_trajectory(p0, v0, a0, pf, vf, af, t_f: float, dt: float,
                        yaw: float = 0.0) -> list[FlatSample]:
    """Per-axis minimum-jerk trajectory sampled every dt."""
    p0, v0, a0 = (np.asarray(x, dtype=float) for x in (p0, v0, a0))
    pf, vf, af = (np.asarray(x, dtype=float) for x in (pf, vf, af))
    ks = [min_jerk_segment((p0[i], v0[i], a0[i]), (pf[i], vf[i], af[i]), t_f)
          for i in range(3)]
    ts = np.arange(0.0, t_f + 1e-12, dt)
    out = []
    for t in ts:
        qva = np.array([min_jerk_eval((p0[i], v0[i], a0[i]), ks[i], t)
                        for i in range(3)])  # (3 axes, 3 rows)
        out.append(FlatSample(qva[:, 0], qva[:, 1], qva[:, 2], yaw))
    return out


# ---------------------------------------------------------------------------
# Smooth trapezoidal (seven-interval) profile
# ---------------------------------------------------------------------------

class InfeasibleProfile(Exception):
    def __init__(self, interval: int, dt: float):
        super().__init__(f"interval {interval} has negative duration {dt:.6f}; "
                         "limits too tight for the requested move")
        self.interval = interval


@dataclass
class TrapezoidalProfile:
    """Seven-interval jerk-limited profile.  Durations follow the closed-form
    interval equations; the position constants come from forward/backward
    continuity so the piecewise evaluation is continuous to roundoff."""
    p0: float
    v0: float
    a0: float
    pf: float
    vf: float
    af: float
    v_m: float
    a_m: float
    j_m: float

    sign: float = 1.0

    def __post_init__(self):
        if min(self.v_m, self.a_m, self.j_m) <= 0.0:
            raise ValueError("limits must be positive")
        if (self.p0 == self.pf and self.v0 == self.vf == 0.0
                and self.a0 == self.af == 0.0):
            # rest-to-rest zero move: every interval collapses
            self.c = (0.0, 0.0, 0.0, 0.0)
            self.k = (self.p0,) * 6
            self.dts = (0.0,) * 7
            self.knots = np.zeros(8)
            return
        if self.pf < self.p0:
            # mirror negative moves through the origin
            self.sign = -1.0
            self.p0, self.pf = -self.p0, -self.pf
            self.v0, self.vf = -self.v0, -self.vf
            self.a0, self.af = -self.a0, -self.af
        j, am, vm = self.j_m, self.a_m, self.v_m
        c1 = (am ** 2 - self.a0 ** 2) / (2 * j) + self.v0
        c2 = vm - am ** 2 / (2 * j)
        c3 = vm - am ** 2 / (2 * j)
        c4 = self.vf + (am ** 2 - self.af ** 2) / (2 * j)
        dt1 = (am - self.a0) / j
        dt2 = (c2 - c1) / am
        dt3 = am / j
        dt5 = am / j
        dt6 = (c3 - c4) / am
        dt7 = (am + self.af) / j
        # forward positions to the cruise start
        k1 = j / 6 * dt1 ** 3 + self.a0 / 2 * dt1 ** 2 + self.v0 * dt1 + self.p0
        k2 = k1 + am / 2 * dt2 ** 2 + c1 * dt2
        k3 = k2 - j / 6 * dt3 ** 3 + am / 2 * dt3 ** 2 + c2 * dt3
        # backward positions from the final state to the cruise end
        k6 = self.pf - (j / 6 * dt7 ** 3 - am / 2 * dt7 ** 2 + c4 * dt7)
        k5 = k6 - (-am / 2 * dt6 ** 2 + c3 * dt6)
        k4 = k5 - (-j / 6 * dt5 ** 3 + vm * dt5)
        dt4 = (k4 - k3) / vm
        self.c = (c1, c2, c3, c4)
        self.k = (k1, k2, k3, k4, k5, k6)
        self.dts = (dt1, dt2, dt3, dt4, dt5, dt6, dt7)
        for i, dt in enumerate(self.dts, start=1):
            if dt < -1e-12:
                raise InfeasibleProfile(i, dt)
        self.knots = np.concatenate([[0.0], np.cumsum(np.maximum(self.dts, 0.0))])

    @property
    def duration(self) -> float:
        return float(self.knots[-1])

    def eval(self, t: float) -> tuple[float, float, float, float]:
        """(s, sdot, sddot, sdddot) at time t."""
        s, v, a, jj = self._eval_fwd(t)
        return self.sign * s, self.sign * v, self.sign * a, self.sign * jj

    def _eval_fwd(self, t: float) -> tuple[float, float, float, float]:
        if self.duration == 0.0:
            return self.p0, 0.0, 0.0, 0.0
        j, am, vm = self.j_m, self.a_m, self.v_m
        c1, c2, c3, c4 = self.c
        k1, k2, k3, k4, k5, k6 = self.k
        t = float(np.clip(t, 0.0, self.duration))
        i = int(np.searchsorted(self.knots[1:-1], t, side="right"))
        tb = t - self.knots[i]
        if i == 0:
            return (j / 6 * tb ** 3 + self.a0 / 2 * tb ** 2 + self.v0 * tb + self.p0,
                    j / 2 * tb ** 2 + self.a0 * tb + self.v0,
                    j * tb + self.a0, j)
        if i == 1:
            return (am / 2 * tb ** 2 + c1 * tb + k1, am * tb + c1, am, 0.0)
        if i == 2:
            return (-j / 6 * tb ** 3 + am / 2 * tb ** 2 + c2 * tb + k2,
                    -j / 2 * tb ** 2 + am * tb + c2, -j * tb + am, -j)
        if i == 3:
            return (vm * tb + k3, vm, 0.0, 0.0)
        if i == 4:
            return (-j / 6 * tb ** 3 + vm * tb + k4,
                    -j / 2 * tb ** 2 + vm, -j * tb, -j)
        if i == 5:
            return (-am / 2 * tb ** 2 + c3 * tb + k5, -am * tb + c3, -am, 0.0)
        return (j / 6 * tb ** 3 - am / 2 * tb ** 2 + c4 * tb + k6,
                j / 2 * tb ** 2 - am * tb + c4, j * tb - am, j)
