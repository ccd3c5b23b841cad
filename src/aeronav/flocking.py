"""Distributed flocking: aggregate potential forces, null-space prioritized
blending, and the bounded acceleration-level control law on the 2D/3D
nonholonomic model.

Per tick every agent sees only a snapshot of its neighbors within the
communication range.  Forces: inter-agent spacing (tanh of the separation
error), goal attraction gated by a sigmoid that vanishes inside the goal
ball, and an obstacle force active inside a critical shell.  The blend
projects lower-priority forces into the null space of higher-priority ones
(order: obstacle, spacing, goal), so they can never cancel a more critical
force.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import unit, unit_or_zero, wrap_angle
from .plants import step_flock_batch
from .world import World


@dataclass(frozen=True)
class FlockParams:
    k_ij: float = 0.6            # spacing force gain
    k_goal: float = 0.5
    k_obs: float = 1.0
    k_v: float = 2.5             # speed damping (must dominate, see check)
    kk1: np.ndarray = None       # orientation loop gains (diagonal, m-1)
    kk2: np.ndarray = None
    d_ij: float = 5.0            # desired separation
    d_s: float = 1.0             # hard safety margin
    r_c: float = 20.0            # communication range
    goal: np.ndarray = None
    goal_radius: float = 10.0
    big_c: float = 5.5           # obstacle critical shell
    gamma: float = 1.0           # sigmoid steepness
    mu: float = 1.0              # smooth-sgn steepness for the speed damping
    alpha_neighbors: str = "all"  # "all" | "nearest2" (large-swarm variant)
    theta_ddot_cap: float = 2.0  # clamp on the filtered feedforward

    def __post_init__(self):
        if self.kk1 is None:
            object.__setattr__(self, "kk1", 0.25 * np.eye(2))
        if self.kk2 is None:
            object.__setattr__(self, "kk2", 2.0 * np.eye(2))
        if self.goal is None:
            object.__setattr__(self, "goal", np.zeros(3))
        if self.d_ij <= self.d_s:
            raise ValueError("need d_ij > d_s")

    def damping_condition_ok(self, max_neighbors: int) -> bool:
        """k_v > k_goal + sum of spacing gains over the densest neighborhood."""
        return self.k_v > self.k_goal + self.k_ij * max_neighbors


def sigmoid_gate(z: float, gamma: float) -> float:
    """0.5 + 0.5 tanh(gamma z): ~0 well inside the region of interest."""
    return 0.5 + 0.5 * float(np.tanh(gamma * z))


@dataclass
class FlockSnapshot:
    """State of all agents at one tick (immutable within the tick)."""
    q: np.ndarray        # (n, m)
    theta: np.ndarray    # (n, m-1)
    nu: np.ndarray       # (n, m): [v, Omega]

    @property
    def n(self) -> int:
        return len(self.q)

    @property
    def m(self) -> int:
        return self.q.shape[1]


def neighbor_lists(snapshot: FlockSnapshot, r_c: float) -> list[np.ndarray]:
    """Symmetric communication graph by range; recomputed per tick."""
    q = snapshot.q
    d = np.linalg.norm(q[:, None, :] - q[None, :, :], axis=2)
    within = d <= r_c
    np.fill_diagonal(within, False)
    return [np.nonzero(row)[0] for row in within]


def spacing_force(i: int, snapshot: FlockSnapshot, neighbors: np.ndarray,
                  params: FlockParams,
                  rng: np.random.Generator | None = None,
                  log: list | None = None) -> np.ndarray:
    """f_alpha = sum k_ij tanh(|q_ij| - d_ij) n_ij over the force neighbors."""
    q = snapshot.q
    if params.alpha_neighbors == "nearest2" and len(neighbors) > 2:
        d = np.linalg.norm(q[neighbors] - q[i], axis=1)
        neighbors = neighbors[np.argsort(d)[:2]]
    f = np.zeros(snapshot.m)
    for j in neighbors:
        diff = q[j] - q[i]
        dist = float(np.linalg.norm(diff))
        if dist < 1e-9:
            # coincident agents are rejected at spawn; at runtime nudge apart
            if rng is None:
                raise ValueError("coincident agents")
            diff = rng.standard_normal(snapshot.m) * 1e-6
            dist = float(np.linalg.norm(diff))
            if log is not None:
                log.append(("coincident_guard", i, int(j)))
        f += params.k_ij * np.tanh(dist - params.d_ij) * (diff / dist)
    return f


def goal_force(i: int, snapshot: FlockSnapshot, params: FlockParams) -> np.ndarray:
    q_ig = float(np.linalg.norm(snapshot.q[i] - params.goal))
    gate = sigmoid_gate(q_ig - params.goal_radius, params.gamma)
    if q_ig < 1e-9:
        return np.zeros(snapshot.m)
    n_ig = (params.goal - snapshot.q[i]) / q_ig
    return params.k_goal * gate * n_ig


def obstacle_force(i: int, snapshot: FlockSnapshot, params: FlockParams,
                   world: World | None, t: float = 0.0) -> np.ndarray:
    """Repulsive force inside the critical shell; the direction is a vortex
    blend (half away from the surface, half tangential) so the swarm slides
    around instead of stalling."""
    if world is None or not world.obstacles:
        return np.zeros(snapshot.m)
    d, closest, _ = world.nearest_obstacle(snapshot.q[i], t)
    if d > params.big_c:
        return np.zeros(snapshot.m)
    gate = sigmoid_gate(params.big_c - d, params.gamma)
    e_away = unit_or_zero(snapshot.q[i] - closest)
    if np.linalg.norm(e_away) < 1e-9:
        e_away = unit(np.ones(snapshot.m))
    if snapshot.m == 3:
        g_dir = unit_or_zero(params.goal - snapshot.q[i])
        swirl = np.cross(np.cross(e_away, g_dir), e_away)
        swirl = unit_or_zero(swirl)
        n_io = unit(e_away + 0.9 * swirl) if np.linalg.norm(swirl) > 1e-9 else e_away
    else:
        n_io = e_away
    return params.k_obs * gate * n_io


def nsb_blend(f1: np.ndarray, f2: np.ndarray, f3: np.ndarray) -> np.ndarray:
    """f~ = f1 + N1 f2 + N2 f3 with N1 = I - f1_hat f1_hat^T and
    N2 = N1 (I - f2_hat f2_hat^T); a zero force projects as identity."""
    m = len(f1)

    def proj(f):
        n = np.linalg.norm(f)
        if n < 1e-12:
            return np.eye(m)
        fh = f / n
        return np.eye(m) - np.outer(fh, fh)

    n1 = proj(f1)
    n2 = n1 @ proj(f2)
    return f1 + n1 @ f2 + n2 @ f3


def heading_angles(f: np.ndarray) -> np.ndarray:
    """Orientation angle vector of a nonzero direction: [flight path,
    heading] for m = 3, [heading] for m = 2."""
    if len(f) == 2:
        return np.array([np.arctan2(f[1], f[0])])
    return np.array([np.arctan2(f[2], np.hypot(f[0], f[1])),
                     np.arctan2(f[1], f[0])])


def flocking_control(v_i: float, theta_i: np.ndarray, theta_dot_i: np.ndarray,
                     f_tilde: np.ndarray, r_i: np.ndarray,
                     theta_f: np.ndarray, theta_f_dot: np.ndarray,
                     theta_f_ddot: np.ndarray,
                     params: FlockParams) -> tuple[float, np.ndarray]:
    """Acceleration-level law: a = f~ . r - k_v sgn(v) (smooth), and the
    orientation tracking law with feedforward."""
    a = float(f_tilde @ r_i) - params.k_v * float(np.tanh(params.mu * v_i))
    e = wrap_angle(theta_i - theta_f)
    e_dot = theta_dot_i - theta_f_dot
    alpha = theta_f_ddot - params.kk1 @ np.tanh(e) - params.kk2 @ np.tanh(e_dot)
    return a, alpha


def flock_energy(snapshot: FlockSnapshot, params: FlockParams,
                 neighbor: list[np.ndarray],
                 e_theta: np.ndarray | None = None,
                 e_theta_dot: np.ndarray | None = None) -> float:
    """Total system energy: pairwise spacing potential + speed kinetic term
    + orientation-loop terms (used by the collision-energy bound)."""
    u_alpha = 0.0
    for i in range(snapshot.n):
        for j in neighbor[i]:
            if j > i:
                q_ij = float(np.linalg.norm(snapshot.q[i] - snapshot.q[j])) - params.d_ij
                u_alpha += params.k_ij * float(np.log(np.cosh(q_ij)))
    kin = 0.5 * float(np.sum(snapshot.nu[:, 0] ** 2))
    ang = 0.0
    if e_theta is not None:
        ang += float(np.sum(np.diag(params.kk1)[None, :] * np.log(np.cosh(e_theta))))
    if e_theta_dot is not None:
        ang += 0.5 * float(np.sum(e_theta_dot ** 2))
    return u_alpha + kin + ang


def collision_energy_bound(params: FlockParams) -> float:
    """c* = min k_ij ln cosh(d_ij - d_s): trajectories starting below this
    total energy can never violate the safety separation."""
    return params.k_ij * float(np.log(np.cosh(params.d_ij - params.d_s)))


class FlockSim:
    """Two-phase tick engine: snapshot -> per-agent controls -> batch step."""

    def __init__(self, q0: np.ndarray, theta0: np.ndarray, params: FlockParams,
                 world: World | None = None, control_dt: float = 0.1,
                 plant_dt: float = 0.01,
                 rng: np.random.Generator | None = None):
        q0 = np.asarray(q0, dtype=float)
        n, m = q0.shape
        self.snapshot = FlockSnapshot(q0.copy(), np.asarray(theta0, dtype=float).copy(),
                                      np.zeros((n, m)))
        self.params = params
        self.world = world
        self.control_dt = control_dt
        self.plant_dt = plant_dt
        self.rng = rng or np.random.default_rng(0)
        self.events: list = []
        self.t = 0.0
        self._theta_f = self.snapshot.theta.copy()
        self._theta_f_dot = np.zeros((n, m - 1))
        self._theta_f_ddot = np.zeros((n, m - 1))
        self._ema = 0.2    # filter constant for the feedforward derivatives

    def forces(self, i: int, neighbors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        f_a = spacing_force(i, self.snapshot, neighbors[i], self.params,
                            self.rng, self.events)
        f_g = goal_force(i, self.snapshot, self.params)
        f_o = obstacle_force(i, self.snapshot, self.params, self.world, self.t)
        return f_a, f_g, f_o

    def _agent_control(self, i: int, nb) -> np.ndarray:
        """Control of one agent from the shared snapshot (phase 2 of the
        two-phase tick; pure given the snapshot and the agent's own filter
        state)."""
        snap = self.snapshot
        f_a, f_g, f_o = self.forces(i, nb)
        f_t = nsb_blend(f_o, f_a, f_g)
        if np.linalg.norm(f_t) > 1e-9:
            th_f_new = heading_angles(f_t)
        else:
            th_f_new = self._theta_f[i]  # hold the previous direction
        d1_raw = wrap_angle(th_f_new - self._theta_f[i]) / self.control_dt
        d1 = (1 - self._ema) * self._theta_f_dot[i] + self._ema * d1_raw
        d2_raw = (d1 - self._theta_f_dot[i]) / self.control_dt
        d2 = (1 - self._ema) * self._theta_f_ddot[i] + self._ema * d2_raw
        cap = self.params.theta_ddot_cap
        d2 = np.clip(d2, -cap, cap)
        self._theta_f[i] = th_f_new
        self._theta_f_dot[i] = d1
        self._theta_f_ddot[i] = d2

        r_i = self._direction(snap.theta[i])
        a, alpha = flocking_control(snap.nu[i, 0], snap.theta[i],
                                    snap.nu[i, 1:], f_t, r_i,
                                    th_f_new, d1, d2, self.params)
        out = np.empty(snap.m)
        out[0] = a
        out[1:] = alpha
        return out

    def tick(self):
        snap = self.snapshot
        n, m = snap.n, snap.m
        nb = neighbor_lists(snap, self.params.r_c)
        tau = np.zeros((n, m))
        for i in range(n):
            tau[i] = self._agent_control(i, nb)
        q, th, nu = snap.q, snap.theta, snap.nu
        steps = max(1, int(round(self.control_dt / self.plant_dt)))
        for _ in range(steps):
            q, th, nu = step_flock_batch(q, th, nu, tau, self.plant_dt)
        self.snapshot = FlockSnapshot(q, th, nu)
        self.t += self.control_dt
        return self.snapshot

    @staticmethod
    def _direction(theta: np.ndarray) -> np.ndarray:
        if len(theta) == 1:
            return np.array([np.cos(theta[0]), np.sin(theta[0])])
        return np.array([np.cos(theta[0]) * np.cos(theta[1]),
                         np.cos(theta[0]) * np.sin(theta[1]),
                         np.sin(theta[0])])

    def min_pairwise(self) -> float:
        q = self.snapshot.q
        d = np.linalg.norm(q[:, None, :] - q[None, :, :], axis=2)
        return float(np.min(d[np.triu_indices(len(q), k=1)]))

    def speeds(self) -> np.ndarray:
        return np.abs(self.snapshot.nu[:, 0])

    def adjacency_full_rank(self) -> bool:
        nb = neighbor_lists(self.snapshot, self.params.r_c)
        n = self.snapshot.n
        adj = np.zeros((n, n))
        for i, lst in enumerate(nb):
            adj[i, lst] = 1.0
        return bool(np.linalg.matrix_rank(adj + np.eye(n)) == n)
