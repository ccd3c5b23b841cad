"""Quadrotor flatness-based sliding-mode position control and geometric
attitude loop, tracking a flat-output reference (position, velocity,
acceleration, yaw) sample by sample.

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

from .geom import cross3, norm, unit, vee
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
    if norm(a_cmd) < 1e-9:
        raise ValueError("acceleration command must be nonzero")
    z_des = unit(a_cmd)
    x_c = np.array([np.cos(yaw_ref), np.sin(yaw_ref), 0.0])
    cross = cross3(z_des, x_c)
    if norm(cross) < 1e-9:
        # degenerate yaw: a_cmd parallel to x_c; nudge the reference yaw
        x_c = np.array([np.cos(yaw_ref + 1e-6), np.sin(yaw_ref + 1e-6), 0.0])
        cross = cross3(z_des, x_c)
    y_des = unit(cross)
    x_des = cross3(y_des, z_des)
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

