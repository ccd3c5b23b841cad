"""3D reactive navigation: plane-of-avoidance boundary following plus pure
pursuit for the constant-speed heading-vector plant.

The avoidance maneuver is confined to a plane fixed when the maneuver
starts, spanned by the heading and a tangent direction to the obstacle;
inside that plane the law is the same sliding-mode distance regulator as in
the planar case.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geom import angle_between, chi, smooth_sgn, steer_map, unit
from .plants import Heading3DState
from .world import Ellipsoid, World


@dataclass(frozen=True)
class Reactive3DParams:
    v_bar: float = 1.0           # commanded speed
    omega_max: float = 1.5       # angular rate bound
    d0: float = 1.0
    d_safe: float = 0.5
    big_c: float = 2.5
    eps: float = 0.5             # R2 distance band: d <= d0 + eps
    gamma: float = 1.0
    delta: float = 0.5
    mu: float = 10.0
    align_tol: float = 0.2

    def __post_init__(self):
        if not (self.d0 > self.d_safe > 0.0):
            raise ValueError("require d0 > d_safe > 0")
        if not (self.big_c > self.d0 + self.eps):
            raise ValueError("require C > d0 + eps")


@dataclass(frozen=True)
class PlaneOfAvoidance:
    normal: np.ndarray           # unit normal
    anchor: np.ndarray           # point in the plane (position at maneuver start)
    gamma_dir: float             # +/-1 rotation sense inside the plane
    tau: float                   # maneuver start time

    def signed_distance(self, p: np.ndarray) -> float:
        return float(np.dot(np.asarray(p, dtype=float) - self.anchor, self.normal))


def tangent_to_ellipsoid(p0: np.ndarray, ellipsoid: Ellipsoid,
                         heading: np.ndarray, n_grid: int = 720) -> tuple[np.ndarray, np.ndarray]:
    """Tangent direction from p0 to the ellipsoid making the smallest angle
    with `heading`, plus its touch point.

    Scaling the ellipsoid to a unit sphere maps the tangency manifold to the
    circle q.c = 1 exactly, so the program reduces to a 1D search over that
    circle (the tangent-cone circle), refined locally.
    """
    p0 = np.asarray(p0, dtype=float)
    q0 = ellipsoid.to_body(p0) / ellipsoid.semi
    rho = float(np.linalg.norm(q0))
    if rho <= 1.0 + 1e-12:
        raise ValueError("tangent requires a point strictly outside the ellipsoid")
    center = q0 / rho ** 2
    r_circ = np.sqrt(1.0 - 1.0 / rho ** 2)
    n = q0 / rho
    ref = np.eye(3)[int(np.argmin(np.abs(n)))]
    e1 = unit(np.cross(n, ref))
    e2 = np.cross(n, e1)
    a_dir = unit(np.asarray(heading, dtype=float))

    def candidates(phis):
        qs = (center[None, :] + r_circ * (np.cos(phis)[:, None] * e1[None, :]
                                          + np.sin(phis)[:, None] * e2[None, :]))
        pts = np.array([ellipsoid.to_world(q * ellipsoid.semi) for q in qs])
        tangents = pts - p0
        tn = tangents / np.linalg.norm(tangents, axis=1)[:, None]
        return pts, tn @ a_dir

    phis = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    pts, scores = candidates(phis)
    best = int(np.argmax(scores))
    lo = phis[best] - 2.0 * np.pi / n_grid
    hi = phis[best] + 2.0 * np.pi / n_grid
    for _ in range(60):  # golden-section refinement of the 1D objective
        m1 = lo + 0.381966 * (hi - lo)
        m2 = hi - 0.381966 * (hi - lo)
        _, s1 = candidates(np.array([m1]))
        _, s2 = candidates(np.array([m2]))
        if s1[0] >= s2[0]:
            hi = m2
        else:
            lo = m1
    phi_star = 0.5 * (lo + hi)
    pt, _ = candidates(np.array([phi_star]))
    touch = pt[0]
    return unit(touch - p0), touch


def build_plane(p: np.ndarray, heading: np.ndarray, tangent: np.ndarray,
                closest_point: np.ndarray, tau: float) -> PlaneOfAvoidance:
    """Fix the avoidance plane n = T x a(tau) and pick the rotation sense that
    makes the sliding law orbit-stable (Gamma scales the in-plane normal
    i_n = a x n toward the obstacle).  Head-on ties break so the initial
    swerve goes to the tangent side (the short way around)."""
    a = unit(np.asarray(heading, dtype=float))
    n = np.cross(np.asarray(tangent, dtype=float), a)
    nn = np.linalg.norm(n)
    if nn < 1e-9:
        raise ValueError("tangent parallel to heading: avoidance plane undefined")
    n = n / nn
    i_n = np.cross(a, n)
    toward = np.asarray(closest_point, dtype=float) - np.asarray(p, dtype=float)
    side = float(np.dot(i_n, toward))
    if abs(side) > 1e-6 * max(np.linalg.norm(toward), 1.0):
        gamma_dir = 1.0 if side > 0.0 else -1.0
    else:
        # i_n(tau) points to the tangent/swerve side; the body lies opposite
        gamma_dir = -1.0
    return PlaneOfAvoidance(n, np.asarray(p, dtype=float).copy(), gamma_dir, tau)


def avoid_law_3d(heading: np.ndarray, d: float, d_dot: float,
                 plane: PlaneOfAvoidance, p: Reactive3DParams,
                 toward: np.ndarray | None = None) -> np.ndarray:
    """u = Gamma * u_max * sgn(ddot + chi(d - d0)) * i_n, with i_n = a x n.

    Gamma orients i_n toward the obstacle so the sliding surface is
    attracting; when the current obstacle direction `toward` is supplied the
    side is re-evaluated from it (it is constant during a proper orbit),
    otherwise the sign frozen in the plane record is used.  The output is
    orthogonal to the heading and bounded by omega_max.
    """
    a = np.asarray(heading, dtype=float)
    i_n = np.cross(a, plane.normal)
    n_i = np.linalg.norm(i_n)
    if n_i < 1e-9:
        raise ValueError("degenerate i_n: heading parallel to the plane normal")
    i_n = i_n / n_i
    gamma_dir = plane.gamma_dir
    if toward is not None:
        side = float(np.dot(i_n, toward))
        if abs(side) > 1e-9 * max(np.linalg.norm(toward), 1.0):
            gamma_dir = 1.0 if side > 0.0 else -1.0
    s = d_dot + chi(d - p.d0, p.gamma, p.delta)
    return gamma_dir * p.omega_max * smooth_sgn(s, p.mu) * i_n


def pp_omega(s_r: np.ndarray, p_r: np.ndarray, p_goal: np.ndarray,
             p: Reactive3DParams) -> tuple[float, np.ndarray]:
    """Pure-pursuit speed and turn rate toward the goal:
    V0 = V_bar tanh(mu |p_e|), Omega = Omega_max F(s_r, p_e)."""
    p_e = np.asarray(p_goal, dtype=float) - np.asarray(p_r, dtype=float)
    v0 = p.v_bar * float(np.tanh(p.mu * np.linalg.norm(p_e)))
    omega = p.omega_max * steer_map(s_r, p_e)
    return v0, omega


class Mode3D(Enum):
    PURSUIT = "pursuit"
    AVOID = "avoid"


class Reactive3DNavigator:
    """Mode machine over pursuit/avoidance for the heading-vector plant."""

    def __init__(self, params: Reactive3DParams, world: World, goal: np.ndarray,
                 control_dt: float = 0.1, rng: np.random.Generator | None = None):
        self.p = params
        self.world = world
        self.goal = np.asarray(goal, dtype=float)
        self.control_dt = control_dt
        self.rng = rng or np.random.default_rng(0)
        self.mode = Mode3D.PURSUIT
        self.plane: PlaneOfAvoidance | None = None
        self._d_prev: float | None = None
        self._avoid_id = -1
        self._blocked: set[int] = set()
        self.events: list[tuple[int, str]] = []

    def control(self, state: Heading3DState, t: float, tick: int) -> tuple[float, np.ndarray]:
        if self.mode == Mode3D.AVOID:
            d, closest = self.world.obstacles[self._avoid_id].distance(state.p, t)
            obs_id = self._avoid_id
        else:
            d, closest, obs_id = self.world.nearest_obstacle(state.p, t)
        d_dot = 0.0 if self._d_prev is None else (d - self._d_prev) / self.control_dt
        self._d_prev = d

        if self.mode == Mode3D.PURSUIT:
            if d <= self.p.big_c and d_dot < 0.0 and obs_id not in self._blocked:
                obstacle = self.world.obstacles[obs_id]
                if isinstance(obstacle, Ellipsoid):
                    tangent, _ = tangent_to_ellipsoid(state.p, obstacle, state.a)
                elif hasattr(obstacle, "radius") and hasattr(obstacle, "center"):
                    sphere_as_ell = Ellipsoid(obstacle.center,
                                              np.full(3, obstacle.radius))
                    tangent, _ = tangent_to_ellipsoid(state.p, sphere_as_ell, state.a)
                else:
                    # no resolvable edge (e.g. a wall): grazing direction with
                    # a seeded random out-of-plane tilt, flagged in events
                    graze = steer_map(unit(closest - state.p), state.a)
                    tilt = 0.2 * self.rng.standard_normal(3)
                    tangent = unit(graze + tilt - np.dot(tilt, state.a) * state.a)
                    self.events.append((tick, "random_plane"))
                self.plane = build_plane(state.p, state.a, tangent, closest, t)
                self.mode = Mode3D.AVOID
                self._avoid_id = obs_id
                self.events.append((tick, "R1"))
        else:
            p_e = self.goal - state.p
            aligned = angle_between(state.a, p_e) < self.p.align_tol
            if (d <= self.p.d0 + self.p.eps and aligned
                    and self._goal_ray_clear(state, t)):
                self.mode = Mode3D.PURSUIT
                self._blocked.add(self._avoid_id)
                self.events.append((tick, "R2"))
                self._d_prev = None

        for oid in list(self._blocked):
            if self.world.obstacles[oid].distance(state.p, t)[0] > self.p.big_c:
                self._blocked.discard(oid)

        if self.mode == Mode3D.AVOID:
            u = avoid_law_3d(state.a, d, d_dot, self.plane, self.p,
                             toward=closest - state.p)
            return self.p.v_bar, u
        v0, omega = pp_omega(state.a, state.p, self.goal, self.p)
        return v0, omega

    def _goal_ray_clear(self, state: Heading3DState, t: float) -> bool:
        """Releasing the maneuver must not graze the obstacle being avoided:
        the straight run toward the goal keeps nearly the boundary-following
        distance from it over a few threshold lengths (other obstacles get
        their own maneuvers once encountered)."""
        margin = max(self.p.d_safe, 0.97 * self.p.d0)
        ob = self.world.obstacles[self._avoid_id]
        to_goal = self.goal - state.p
        dist = float(np.linalg.norm(to_goal))
        horizon = min(dist, 3.0 * self.p.big_c)
        n = max(2, int(np.ceil(horizon / 0.1)))
        for s in np.linspace(0.0, horizon / dist, n):
            if ob.distance(state.p + s * to_goal, t)[0] <= margin:
                return False
        return True
