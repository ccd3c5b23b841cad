"""Planar hybrid navigator: pure pursuit + sliding-mode boundary following
with trap detection and escape-goal replanning.

Mode machine: PathTracking (pure pursuit on the planned path) and Reactive
(constant-speed boundary following of the nearest obstacle).  Switching:

R1  tracking -> reactive when the nearest sensed obstacle distance falls to
    the threshold C with negative range rate.
R2  reactive -> tracking when the corridor toward the pursuit target is
    clear and the heading is aligned with it.

A fully-blocked frontal field of view raises a trap event: an escape goal is
drawn in a random clear direction and the global planner is re-run from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bezier import PiecewisePath
from .geom import angle_diff, chi, norm, smooth_sgn
from .planner2d import RrtParams, prune_path, rrt_plan, smooth_path
from .plants import Unicycle2DState
from .world import World


class NavMode(Enum):
    TRACKING = "M1"
    REACTIVE = "M2"


# Design constants of the laws below; no stock scenario varies them.
GAMMA = 1.0                       # chi slope
DELTA = 0.5                       # chi saturation band
MU = 10.0                         # smooth-sgn steepness
SCAN_RESOLUTION = np.deg2rad(1.0)
ALIGN_TOL = 0.35                  # heading alignment epsilon-bar [rad]
LOOKAHEAD_BASE = 0.8              # adaptive L = clamp(L0 + k*e_ct)
LOOKAHEAD_GAIN = 1.0              # (constants are ours, not from the source method)
LOOKAHEAD_MAX = 2.5
GOAL_TOL = 0.3


@dataclass(frozen=True)
class HybridParams:
    v_max: float = 1.0
    u_max: float = 1.5
    d0: float = 1.0               # boundary-following distance
    d_safe: float = 0.5
    big_c: float = 2.0            # mode-switch threshold C (< d_sensing)
    d_sensing: float = 3.5
    fov_half_angle: float = np.deg2rad(80.0)
    escape_distance: float = 3.0

    def __post_init__(self):
        if not (self.d0 > self.d_safe > 0.0):
            raise ValueError("require d0 > d_safe > 0")
        if not (self.big_c < self.d_sensing):
            raise ValueError("require C < d_sensing")
        if not (0.0 < self.fov_half_angle <= np.pi / 2 + 1e-12):
            raise ValueError("FOV half-angle must lie in (0, pi/2]")


def reactive_law_2d(d: float, d_dot: float, gamma_dir: float,
                    p: HybridParams) -> tuple[float, float]:
    """Constant-speed boundary following: u = Gamma*u_max*sgn(ddot + chi(d - d0))."""
    if d < 0.0:
        raise ValueError("distance must be nonnegative")
    s = d_dot + chi(d - p.d0, GAMMA, DELTA)
    u = gamma_dir * p.u_max * smooth_sgn(s, MU)
    return p.v_max, float(u)


def pure_pursuit_2d(state: Unicycle2DState, path: PiecewisePath,
                    p: HybridParams) -> tuple[float, float, np.ndarray]:
    """Steer at full speed toward a virtual target one (adaptive) lookahead
    ahead of the closest path point.  Returns (V, u, target)."""
    pos = state.position
    s_close = path.closest_param(pos)
    cross_track = norm(path.point(s_close) - pos)
    lookahead = float(np.clip(LOOKAHEAD_BASE + LOOKAHEAD_GAIN * abs(cross_track),
                              LOOKAHEAD_BASE, LOOKAHEAD_MAX))
    _, target = path.point_ahead(s_close, lookahead)
    theta_d = float(np.arctan2(target[1] - pos[1], target[0] - pos[0]))
    err = angle_diff(theta_d, state.theta)
    if abs(abs(err) - np.pi) < 1e-12:
        err = np.pi  # tie-break turns positive when the target is dead astern
    u = p.u_max * smooth_sgn(err, MU)
    return p.v_max, float(u), target


def detect_trap(scan_ranges: np.ndarray, threshold: float) -> bool:
    """True iff every ray in the frontal FOV is blocked within `threshold`."""
    scan_ranges = np.asarray(scan_ranges, dtype=float)
    if scan_ranges.size == 0:
        raise ValueError("empty FOV scan")
    return bool(np.all(scan_ranges < threshold))


def escape_goal(p_tr: np.ndarray, scan_angles: np.ndarray,
                scan_ranges: np.ndarray, threshold: float, l_ge: float,
                rng: np.random.Generator) -> np.ndarray:
    """Escape point at distance l_ge along a clear FOV direction drawn
    uniformly from the seeded stream."""
    clear = np.asarray(scan_ranges) >= threshold
    if not np.any(clear):
        raise RuntimeError("trap is unescapable: no clear direction in FOV")
    alpha = float(rng.choice(np.asarray(scan_angles)[clear]))
    return np.asarray(p_tr, dtype=float) + l_ge * np.array([np.cos(alpha), np.sin(alpha)])


def turn_direction(state: Unicycle2DState, closest_point: np.ndarray) -> float:
    """Avoidance direction Gamma: +1 when the obstacle lies to the left of
    the heading (counterclockwise following), -1 otherwise."""
    b = np.asarray(closest_point, dtype=float) - state.position
    h = state.heading
    cross = h[0] * b[1] - h[1] * b[0]
    return 1.0 if cross >= 0.0 else -1.0


class HybridNavigator:
    """Per-vehicle executive.  One `control()` call per control period."""

    def __init__(self, params: HybridParams, world: World, goal: np.ndarray,
                 rrt: RrtParams, rng: np.random.Generator, control_dt: float = 0.1,
                 trap_range: float | None = None):
        self.p = params
        self.world = world
        # the planner sees only the known obstacles
        self.known = World([o for o in world.obstacles if o.known], world.bounds)
        self.goal = np.asarray(goal, dtype=float)
        self.rrt = rrt
        self.rng = rng
        self.control_dt = control_dt
        self.trap_range = params.big_c if trap_range is None else trap_range
        self.mode = NavMode.TRACKING
        self.path: PiecewisePath | None = None
        self.events: list[tuple[int, str, dict]] = []
        self.replan_count = 0
        self._d_prev: float | None = None
        self._gamma = 1.0
        self._reactive_obstacle = -1
        self._blocked_ids: set[int] = set()
        self._stopped = False
        # scan the full +-pi/2 frontal sweep; trap detection looks only at the
        # +-alpha0 sub-cone while escape goals may use any clear direction
        self._scan_angles_rel = np.arange(-np.pi / 2,
                                          np.pi / 2 + 1e-9,
                                          SCAN_RESOLUTION)
        self._trap_mask = np.abs(self._scan_angles_rel) <= params.fov_half_angle + 1e-9

    # -- planning -----------------------------------------------------------

    def plan(self, start: np.ndarray, t: float = 0.0, from_tick: int = 0) -> bool:
        res = rrt_plan(start, self.goal, self.known, self.rrt, self.rng, t)
        if not res.success:
            self.events.append((from_tick, "plan_failed", {"reason": res.reason}))
            return False
        pruned = prune_path(res.waypoints, self.known, self.rrt, t)
        self.path = smooth_path(pruned)
        return True

    # -- per-tick control ---------------------------------------------------

    def _scan(self, state: Unicycle2DState, t: float) -> tuple[np.ndarray, np.ndarray]:
        angles = state.theta + self._scan_angles_rel
        ranges = self.world.raycast_2d(state.position, angles, self.p.d_sensing, t)
        return angles, ranges

    def _corridor_clear(self, state: Unicycle2DState, target: np.ndarray, t: float) -> bool:
        """Clearance along the bearing to the pursuit target, extended C + d0
        past it so resuming tracking cannot immediately re-trigger R1."""
        to_t = np.asarray(target, dtype=float) - state.position
        n = norm(to_t)
        if n < 1e-9:
            return True
        p_end = state.position + to_t / n * (n + self.p.big_c + self.p.d0)
        return self.world.segment_clear(state.position, p_end, self.p.d_safe, t,
                                        resolution=0.1)

    def _replan_from_trap(self, state: Unicycle2DState, t: float, tick: int,
                          angles, ranges, blocking_id: int) -> bool:
        """Escape-goal replan inside the tick.  The planner runs on its
        iteration budget; overrunning it keeps the old path and reports
        failure so the vehicle holds instead of driving into the trap."""
        p_ge = escape_goal(state.position, angles, ranges,
                           self.trap_range, self.p.escape_distance, self.rng)
        self.replan_count += 1
        self.events.append((tick, "replan", {"escape": p_ge.tolist()}))
        res = rrt_plan(p_ge, self.goal, self.known, self.rrt, self.rng, t)
        self.mode = NavMode.TRACKING
        self._blocked_ids.add(blocking_id)
        self._d_prev = None
        if not res.success:
            self.events.append((tick, "replan_overrun", {}))
            return False
        pruned = prune_path(res.waypoints, self.known, self.rrt, t)
        wps = np.vstack([state.position[None, :], pruned])
        keep = [0] + [i for i in range(1, len(wps))
                      if norm(wps[i] - wps[i - 1]) > 1e-6]
        self.path = smooth_path(wps[keep])
        return True

    def control(self, state: Unicycle2DState, t: float, tick: int) -> tuple[float, float]:
        if self.path is None:
            if not self.plan(state.position, t, tick):
                return 0.0, 0.0

        # distance/rate of the active reference obstacle (nearest while
        # tracking, the followed one while reactive)
        if self.mode == NavMode.REACTIVE:
            d, closest = self.world.distance(self._reactive_obstacle, state.position, t)
            obs_id = self._reactive_obstacle
        else:
            d, closest, obs_id = self.world.nearest_obstacle(state.position, t)
        d_dot = 0.0 if self._d_prev is None else (d - self._d_prev) / self.control_dt
        self._d_prev = d

        angles, ranges = self._scan(state, t)
        if detect_trap(ranges[self._trap_mask], self.trap_range):
            try:
                planned = self._replan_from_trap(state, t, tick, angles, ranges, obs_id)
            except RuntimeError:
                if not self._stopped:
                    self.events.append((tick, "trap_unescapable", {}))
                    self._stopped = True
                return 0.0, 0.0
            if not planned:
                return 0.0, 0.0  # hold position; retried on the next trap tick
            v, u, _ = pure_pursuit_2d(state, self.path, self.p)
            return v, u
        self._stopped = False

        v, u, target = pure_pursuit_2d(state, self.path, self.p)
        if self.mode == NavMode.TRACKING:
            # re-arm passed obstacles: clear of C again, or back in the way
            if self._blocked_ids:
                corridor_ok = self._corridor_clear(state, target, t)
                for oid in list(self._blocked_ids):
                    od = self.world.distance(oid, state.position, t)[0]
                    if od > self.p.big_c or not corridor_ok:
                        self._blocked_ids.discard(oid)
            sensed = d <= self.p.d_sensing
            if (sensed and d <= self.p.big_c and d_dot < 0.0
                    and obs_id not in self._blocked_ids):
                self.mode = NavMode.REACTIVE
                self._gamma = turn_direction(state, closest)
                self._reactive_obstacle = obs_id
                self.events.append((tick, "R1", {"obstacle": obs_id, "d": d}))
        else:
            bearing = float(np.arctan2(target[1] - state.position[1],
                                       target[0] - state.position[0]))
            aligned = abs(angle_diff(bearing, state.theta)) < ALIGN_TOL
            if aligned and self._corridor_clear(state, target, t):
                self.mode = NavMode.TRACKING
                self._blocked_ids.add(self._reactive_obstacle)
                self.events.append((tick, "R2", {"obstacle": self._reactive_obstacle}))
                self._d_prev = None

        if self.mode == NavMode.REACTIVE:
            return reactive_law_2d(d, d_dot, self._gamma, self.p)

        if norm(state.position - self.goal) < GOAL_TOL:
            return 0.0, 0.0
        return v, u
