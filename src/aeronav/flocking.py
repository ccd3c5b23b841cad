"""Distributed flocking: aggregate potential forces, null-space prioritized
blending, and the bounded acceleration-level control law on the 3D
nonholonomic model.

Per tick every agent sees only a snapshot of its neighbors within the
communication range.  Forces: inter-agent spacing (tanh of the separation
error), goal attraction gated by a sigmoid that vanishes inside the goal
ball, and an obstacle force active inside a critical shell.  The blend
projects lower-priority forces into the null space of higher-priority ones
(order: obstacle, spacing, goal), so they can never cancel a more critical
force.  Per-row dots and matrix-vector products go through `geom`'s BLAS
helpers, so every row has the one-agent formula's rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import (blas_dots, blas_matvecs, blas_norms, cross3, min_pair_distance, norm,
                   pairwise, unit, unit_or_zero, wrap_angle)
from .plants import flock_direction, step_flock_batch
from .world import World


KK1 = 0.25 * np.eye(2)           # orientation loop gains (diagonal, 2)
KK2 = 2.0 * np.eye(2)
GAMMA = 1.0                      # sigmoid steepness
MU = 1.0                         # smooth-sgn steepness for the speed damping
THETA_DDOT_CAP = 2.0             # clamp on the filtered feedforward
_EYE3 = np.eye(3)


@dataclass(frozen=True)
class FlockParams:
    k_ij: float = 0.6            # spacing force gain
    k_goal: float = 0.5
    k_obs: float = 1.0
    k_v: float = 2.5             # speed damping (> k_goal + k_ij per neighbour)
    d_ij: float = 5.0            # desired separation
    d_s: float = 1.0             # hard safety margin
    r_c: float = 20.0            # communication range
    goal: np.ndarray = None
    goal_radius: float = 10.0
    big_c: float = 5.5           # obstacle critical shell
    alpha_neighbors: str = "all"  # "all" | "nearest2" (large-swarm variant)

    def __post_init__(self):
        if self.goal is None:
            object.__setattr__(self, "goal", np.zeros(3))
        if self.d_ij <= self.d_s:
            raise ValueError("need d_ij > d_s")
        if self.alpha_neighbors not in ("all", "nearest2"):
            raise ValueError(f"alpha_neighbors: all or nearest2, not {self.alpha_neighbors!r}")


def sigmoid_gate(z, gamma: float):
    """0.5 + 0.5 tanh(gamma z): ~0 well inside the region of interest."""
    return 0.5 + 0.5 * np.tanh(gamma * z)


@dataclass
class FlockSnapshot:
    """State of all agents at one tick (immutable within the tick)."""
    q: np.ndarray        # (n, 3)
    theta: np.ndarray    # (n, 2): [flight path, heading]
    nu: np.ndarray       # (n, 3): [v, Omega]

    @property
    def n(self) -> int:
        return len(self.q)


def _in_range(d: np.ndarray, r_c: float) -> np.ndarray:
    """(n, n) communication graph by range from the pairwise distances."""
    within = d <= r_c
    np.fill_diagonal(within, False)
    return within


def neighbor_lists(d: np.ndarray, r_c: float) -> list[np.ndarray]:
    """Symmetric communication graph by range, from the pairwise distances."""
    return [np.nonzero(row)[0] for row in _in_range(d, r_c)]


def spacing_forces(diff: np.ndarray, d: np.ndarray, within: np.ndarray,
                   params: FlockParams, rng: np.random.Generator | None = None,
                   nudged: list | None = None) -> np.ndarray:
    """f_alpha,i = sum_j k_ij tanh(|q_ij| - d_ij) n_ij over each agent's force
    neighbors: the in-range agents (within[i, j]), or the two nearest of them
    for alpha_neighbors = "nearest2".  diff and d are `geom.pairwise`; the
    coincident pairs (i, j) nudged apart are appended to nudged."""
    if params.alpha_neighbors == "nearest2" and len(d) > 2:
        near = np.argpartition(np.where(within, d, np.inf), 1, axis=1)[:, :2]
        keep = np.zeros_like(within)
        keep[np.arange(len(d))[:, None], near] = True
        within = within & keep
    dist = blas_norms(diff)
    close = within & (dist < 1e-9)
    if close.any():
        # coincident agents are rejected at spawn; at runtime nudge apart
        if rng is None:
            raise ValueError("coincident agents")
        diff, dist = diff.copy(), dist.copy()
        for i, j in np.argwhere(close):
            diff[i, j] = rng.standard_normal(diff.shape[2]) * 1e-6
            dist[i, j] = norm(diff[i, j])
            if nudged is not None:
                nudged.append((int(i), int(j)))
    gain = params.k_ij * np.tanh(dist - params.d_ij)
    terms = gain[..., None] * (diff / np.where(within, dist, 1.0)[..., None])
    # summed over j in index order, as a per-agent loop would
    return np.where(within[..., None], terms, 0.0).sum(axis=1)


def goal_forces(q: np.ndarray, params: FlockParams) -> np.ndarray:
    """k_goal times the sigmoid gate of the distance outside the goal ball,
    toward the goal; zero at the goal itself.  q: (n, 3)."""
    e = params.goal - q
    q_ig = blas_norms(e)
    at_goal = q_ig < 1e-9
    gain = params.k_goal * sigmoid_gate(q_ig - params.goal_radius, GAMMA)
    if not at_goal.any():
        return gain[:, None] * (e / q_ig[:, None])
    return np.where(at_goal[:, None], 0.0,
                    gain[:, None] * (e / np.where(at_goal, 1.0, q_ig)[:, None]))


def obstacle_force(q_i: np.ndarray, d: float, closest: np.ndarray,
                   params: FlockParams) -> np.ndarray:
    """Repulsive force on the agent at q_i, whose nearest obstacle point is
    `closest` at distance d, inside the critical shell; the direction is a
    vortex blend (half away from the surface, half tangential) so the swarm
    slides around instead of stalling."""
    if d > params.big_c:
        return np.zeros(3)
    gate = sigmoid_gate(params.big_c - d, GAMMA)
    e_away = unit_or_zero(q_i - closest)
    if norm(e_away) < 1e-9:
        e_away = unit(np.ones(3))
    g_dir = unit_or_zero(params.goal - q_i)
    swirl = unit_or_zero(cross3(cross3(e_away, g_dir), e_away))
    n_io = unit(e_away + 0.9 * swirl) if norm(swirl) > 1e-9 else e_away
    return params.k_obs * gate * n_io


def _null_projector(f: np.ndarray) -> np.ndarray:
    """I - f_hat f_hat^T, (..., m, m); the identity where f ~ 0."""
    n = blas_norms(f)[..., None]
    zero = n < 1e-12
    f_hat = np.where(zero, 0.0, f / np.where(zero, 1.0, n)) if zero.any() else f / n
    eye = _EYE3 if f.shape[-1] == 3 else np.eye(f.shape[-1])
    return eye - f_hat[..., :, None] * f_hat[..., None, :]


def nsb_blend(f1: np.ndarray, f2: np.ndarray, f3: np.ndarray) -> np.ndarray:
    """f~ = f1 + N1 f2 + N2 f3 with N1 = I - f1_hat f1_hat^T and
    N2 = N1 (I - f2_hat f2_hat^T); a zero force projects as identity.
    Forces are (m,) or carry a leading agent axis, (n, m)."""
    n1 = _null_projector(f1)
    return f1 + blas_matvecs(n1, f2) + blas_matvecs(n1 @ _null_projector(f2), f3)


def heading_angles(f: np.ndarray) -> np.ndarray:
    """Orientation angles [flight path, heading] of a nonzero direction;
    f is (3,) or (n, 3)."""
    f = np.asarray(f, dtype=float)
    # no out= for arctan2: numpy picks its loop, and so its bits, by operand layout
    return np.concatenate((np.arctan2(f[..., 2], np.hypot(f[..., 0], f[..., 1]))[..., None],
                           np.arctan2(f[..., 1], f[..., 0])[..., None]), axis=-1)


def flocking_control(v_i, theta_i: np.ndarray, theta_dot_i: np.ndarray,
                     f_tilde: np.ndarray, r_i: np.ndarray,
                     theta_f: np.ndarray, theta_f_dot: np.ndarray,
                     theta_f_ddot: np.ndarray, params: FlockParams):
    """Acceleration-level law: a = f~ . r - k_v sgn(v) (smooth), and the
    orientation tracking law with feedforward.  One agent's arguments, or
    all agents' with a leading agent axis ((n,) speeds, (n, 3) vectors)."""
    a = blas_dots(f_tilde, r_i) - params.k_v * np.tanh(MU * v_i)
    e = wrap_angle(theta_i - theta_f)
    e_dot = theta_dot_i - theta_f_dot
    alpha = (theta_f_ddot - blas_matvecs(KK1, np.tanh(e))
             - blas_matvecs(KK2, np.tanh(e_dot)))
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
                q_ij = norm(snapshot.q[i] - snapshot.q[j]) - params.d_ij
                u_alpha += params.k_ij * float(np.log(np.cosh(q_ij)))
    kin = 0.5 * float(np.sum(snapshot.nu[:, 0] ** 2))
    ang = 0.0
    if e_theta is not None:
        ang += float(np.sum(np.diag(KK1)[None, :] * np.log(np.cosh(e_theta))))
    if e_theta_dot is not None:
        ang += 0.5 * float(np.sum(e_theta_dot ** 2))
    return u_alpha + kin + ang


def collision_energy_bound(params: FlockParams) -> float:
    """c* = min k_ij ln cosh(d_ij - d_s): trajectories starting below this
    total energy can never violate the safety separation."""
    return params.k_ij * float(np.log(np.cosh(params.d_ij - params.d_s)))


class FlockSim:
    """Two-phase tick engine: snapshot -> all agents' controls as (n, 3)
    arrays, with obstacle forces only for the agents inside the critical
    shell -> one batch plant step over the control hold."""

    def __init__(self, q0: np.ndarray, theta0: np.ndarray, params: FlockParams,
                 world: World | None = None, control_dt: float = 0.1,
                 plant_dt: float = 0.01,
                 rng: np.random.Generator | None = None):
        q0 = np.asarray(q0, dtype=float)
        n = len(q0)
        self.snapshot = FlockSnapshot(q0.copy(), np.asarray(theta0, dtype=float).copy(),
                                      np.zeros((n, 3)))
        self.params = params
        self.world = world
        self.control_dt = control_dt
        self.plant_dt = plant_dt
        self.rng = rng or np.random.default_rng(0)
        self.events: list = []      # (tick index, kind, data)
        self.ticks = 0
        self.t = 0.0
        self._theta_f = self.snapshot.theta.copy()
        self._theta_f_dot = np.zeros((n, 2))
        self._theta_f_ddot = np.zeros((n, 2))
        self._ema = 0.2    # filter constant for the feedforward derivatives
        self._nearest = (None, [])   # (snapshot, its nearest_obstacle hits)
        self._pairs = (None, None)   # (snapshot, its geom.pairwise)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """`geom.pairwise` of the current positions, computed once per state;
        readers must not write into it."""
        if self._pairs[0] is not self.snapshot:
            self._pairs = (self.snapshot, pairwise(self.snapshot.q))
        return self._pairs[1]

    def nearest_obstacles(self) -> list:
        """Each agent's `World.nearest_obstacle` (distance, closest point,
        index) at the current state, from one many-point query per state,
        however many readers ask."""
        if self._nearest[0] is not self.snapshot:
            self._nearest = (self.snapshot, self.world.nearest_obstacle(self.snapshot.q, self.t))
        return self._nearest[1]

    def tick(self):
        snap, p = self.snapshot, self.params
        diff, d = self.pairs()
        nudged = []
        f_a = spacing_forces(diff, d, _in_range(d, p.r_c), p, self.rng, nudged)
        self.events.extend((self.ticks, "coincident_guard", {"agents": [i, j]})
                           for i, j in nudged)
        f_g = goal_forces(snap.q, p)
        hits = self.nearest_obstacles() if self.world is not None and self.world.obstacles else []
        inside = [i for i, (d_i, _, _) in enumerate(hits) if not d_i > p.big_c]
        f_o = np.zeros_like(f_a)
        for i in inside:
            f_o[i] = obstacle_force(snap.q[i], hits[i][0], hits[i][1], p)
        # with none inside, nsb_blend(0, f_a, f_g): N1 = I; 0.0 + clears I f_a's signed zeros
        f_t = (nsb_blend(f_o, f_a, f_g) if inside
               else (0.0 + f_a) + blas_matvecs(_null_projector(f_a), f_g))
        th_f = heading_angles(f_t)
        steer = blas_norms(f_t) > 1e-9
        if not steer.all():   # a vanishing blend holds the previous direction
            th_f = np.where(steer[:, None], th_f, self._theta_f)
        d1 = ((1 - self._ema) * self._theta_f_dot
              + self._ema * (wrap_angle(th_f - self._theta_f) / self.control_dt))
        d2 = ((1 - self._ema) * self._theta_f_ddot
              + self._ema * ((d1 - self._theta_f_dot) / self.control_dt))
        d2 = np.minimum(np.maximum(d2, -THETA_DDOT_CAP), THETA_DDOT_CAP)   # np.clip's bits
        self._theta_f, self._theta_f_dot, self._theta_f_ddot = th_f, d1, d2
        a, alpha = flocking_control(snap.nu[:, 0], snap.theta, snap.nu[:, 1:], f_t,
                                    flock_direction(snap.theta), th_f, d1, d2, p)
        tau = np.concatenate((a[:, None], alpha), axis=1)
        steps = max(1, int(round(self.control_dt / self.plant_dt)))
        self.snapshot = FlockSnapshot(*step_flock_batch(snap.q, snap.theta, snap.nu, tau,
                                                        self.plant_dt, steps))
        self.t += self.control_dt
        self.ticks += 1
        return self.snapshot

    def min_pairwise(self) -> float:
        return min_pair_distance(self.pairs()[1])

    def speeds(self) -> np.ndarray:
        return np.abs(self.snapshot.nu[:, 0])

    def adjacency_full_rank(self) -> bool:
        adj = _in_range(self.pairs()[1], self.params.r_c)
        return bool(np.linalg.matrix_rank(adj + np.eye(self.snapshot.n)) == self.snapshot.n)
