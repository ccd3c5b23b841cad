"""Real-time path deformation around sensed obstacles plus the kinematic
tracking loop and the third-order trajectory reference model.

The reference geometry is a chain of quintic segments.  When a sensed
obstacle gets too close to the path, the segment window ahead of the vehicle
is re-stitched through a control point pushed along a safe direction
obtained by rotating the local tangent about the plane normal spanned by the
tangent and the obstacle-edge direction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bezier import PiecewisePath
from .geom import angle_diff, rodrigues_rotate, unit, unit_or_zero
from .plants import Angle3DState
from .world import World


@dataclass(frozen=True)
class DeformParams:
    safety_factor: float = 0.6       # deformation magnitude gamma [m]
    alpha0: float = np.pi / 2        # rotation angle of the tangent
    d_safe: float = 0.5
    check_resolution: float = 0.1    # along-path sampling for the checker
    lookahead: float = 1.0
    k_beta: float = 2.0              # guidance gains
    k_alpha: float = 2.0
    c: float = 3.0                   # guidance tanh steepness
    v: float = 1.0                   # constant tracking speed
    max_deforms_per_check: int = 10
    check_margin: float = 0.35       # extra path clearance for tracking error

    @property
    def d_check(self) -> float:
        return self.d_safe + self.check_margin

    def __post_init__(self):
        if self.safety_factor < 0.0:
            raise ValueError("safety factor must be nonnegative")


@dataclass
class UnsafePoint:
    s: float          # path parameter of the closest approach
    d: float          # clearance at that point
    obstacle_id: int
    closest: np.ndarray
    s_lo: float = 0.0  # contiguous unsafe interval around s
    s_hi: float = 0.0
    s_mid: float = 0.0       # interval midpoint: anchor for the deformation
    closest_mid: np.ndarray | None = None
    d_mid: float = 0.0


def find_unsafe(path: PiecewisePath, world: World, d_safe: float,
                t: float = 0.0, s_from: float = 0.0,
                resolution: float = 0.1) -> UnsafePoint | None:
    """Scan the path from s_from for its closest approach to any obstacle;
    reported only when the clearance violates d_safe, together with the
    contiguous violating interval around the worst point."""
    params, pts = path.sample(per_segment=max(8, int(np.ceil(1.0 / resolution * 2))))
    mask = params >= s_from
    params = params[mask]
    pts = pts[mask]
    if len(params) == 0:
        return None
    ds = world.batch_distance(pts, t)
    i_best = int(np.argmin(ds))
    if ds[i_best] >= d_safe:
        return None
    lo = i_best
    while lo > 0 and ds[lo - 1] < d_safe:
        lo -= 1
    hi = i_best
    while hi < len(ds) - 1 and ds[hi + 1] < d_safe:
        hi += 1
    # merge violating runs separated from this one by short safe gaps, so a
    # single window covers pockets that would otherwise trade places
    j = lo - 1
    while j >= 0 and params[lo] - params[j] <= 1.0:
        if ds[j] < d_safe:
            lo = j
        j -= 1
    j = hi + 1
    while j < len(ds) and params[j] - params[hi] <= 1.0:
        if ds[j] < d_safe:
            hi = j
        j += 1
    mid = (lo + hi) // 2
    d_best, q_best, oid_best = world.nearest_obstacle(pts[i_best], t)
    d_mid, q_mid, _ = world.nearest_obstacle(pts[mid], t)
    return UnsafePoint(float(params[i_best]), float(d_best),
                       int(oid_best), q_best,
                       float(params[lo]), float(params[hi]),
                       float(params[mid]), q_mid, float(d_mid))


def safe_direction(path: PiecewisePath, unsafe: UnsafePoint, params: DeformParams,
                   rng: np.random.Generator | None = None,
                   prev_normal: np.ndarray | None = None) -> np.ndarray:
    """v_safe = gamma * R_N(alpha0) T for the deformation at the unsafe point,
    with N = T x E (E toward the obstacle edge); when T and E are collinear
    the normal falls back to the previous one or a path normal.
    """
    if unsafe.closest_mid is not None:
        anchor, closest, d_here = unsafe.s_mid, unsafe.closest_mid, unsafe.d_mid
    else:
        anchor, closest, d_here = unsafe.s, unsafe.closest, unsafe.d
    tangent = path.tangent(anchor)
    p_c = path.point(anchor)
    e = unit_or_zero(closest - p_c)
    # direction of growing clearance: away from the closest surface point
    # outside, toward the nearest exit when the path runs inside the body
    away = e if d_here <= 0.0 else -e
    away = away - np.dot(away, tangent) * tangent  # along-path pushes add nothing
    if np.linalg.norm(away) < 0.3:
        # exit direction almost parallel to the path (aimed at the body's
        # core): keep pushing the previous way, else take a path normal
        if prev_normal is not None and np.linalg.norm(prev_normal) > 1e-9:
            away = unit(np.cross(unit(prev_normal), tangent))
        else:
            ref = np.array([0.0, 0.0, 1.0])
            if abs(np.dot(tangent, ref)) > 0.9:
                ref = np.array([1.0, 0.0, 0.0])
            away = unit(np.cross(tangent, ref))
    else:
        away = unit(away)
    normal = unit(np.cross(tangent, away))
    # rotate the tangent toward growing clearance
    cand = rodrigues_rotate(tangent, normal, params.alpha0)
    if np.dot(cand, away) < 0.0:
        cand = rodrigues_rotate(tangent, normal, -params.alpha0)
    return params.safety_factor * cand


def deform(path: PiecewisePath, unsafe: UnsafePoint, params: DeformParams,
           s_progress: float = 0.0, rng: np.random.Generator | None = None,
           prev_normal: np.ndarray | None = None) -> tuple[PiecewisePath, np.ndarray]:
    """One deformation: move the control point at the worst clearance by
    v_safe and re-stitch the window spanning the violating interval.  The
    window starts no earlier than one lookahead ahead of the vehicle."""
    # window covers the violating interval but never reaches behind the
    # vehicle: the splice starts at the next junction ahead at the earliest.
    # It spans at least two segments so the two stitched chords stay
    # commensurate with the junction derivative magnitudes (single-chord
    # windows make the quintics ring).
    pad = 1.0 + 0.5 * (unsafe.s_hi - unsafe.s_lo)
    i_s = max(int(np.floor(unsafe.s_lo - pad)), int(np.ceil(s_progress + 1e-9)))
    i_s = max(0, min(i_s, path.n_segments - 1))
    i_e = int(np.ceil(unsafe.s_hi + pad))
    i_e = min(path.n_segments, max(i_e, i_s + 2))
    if i_e - i_s < 2 and i_s > 0:
        i_s = i_e - 2
    # widen windows whose junctions have collapsed close together
    while (np.linalg.norm(path.point(float(i_s)) - path.point(float(i_e))) < 0.5
           and (i_e < path.n_segments or i_s > int(np.ceil(s_progress)))):
        if i_e < path.n_segments:
            i_e += 1
        else:
            i_s -= 1
    anchor = unsafe.s_mid if unsafe.closest_mid is not None else unsafe.s
    anchor = float(np.clip(anchor, i_s + 0.05, i_e - 0.05))
    v_safe = safe_direction(path, unsafe, params, rng, prev_normal)
    p_c_new = path.point(anchor) + v_safe
    for q in (path.point(float(i_s)), path.point(float(i_e))):
        if np.linalg.norm(p_c_new - q) < 1e-6:
            p_c_new = p_c_new + 1e-5 * unit_or_zero(v_safe)
    normal_used = np.cross(path.tangent(anchor), unit_or_zero(v_safe))
    new_path = path.replace_window(i_s, i_e, p_c_new)
    if i_e - i_s > 3:
        # wide windows collapse many segments into two: re-subdivide the
        # spliced region so later deformations keep their granularity
        new_path = _resubdivide_window(new_path, i_s, i_s + 2, i_e - i_s)
    return new_path, normal_used


def _resubdivide_window(path: PiecewisePath, j_s: int, j_e: int, n_out: int) -> PiecewisePath:
    """Replace segments [j_s, j_e) by an n_out-segment C2 chain through
    uniform samples of the same geometry (boundary derivatives preserved)."""
    window = PiecewisePath(path.segments[j_s:j_e])
    n_out = max(2, n_out)
    svals = np.linspace(0.0, window.n_segments, n_out + 1)
    # keep the interior stitch junction (the deformation bulge peak) among
    # the interpolation nodes so the re-fit cannot sag below it
    mid = 0.5 * window.n_segments
    svals[int(np.argmin(np.abs(svals - mid)))] = mid
    svals = np.unique(svals)
    w = np.array([window.point(s) for s in svals])
    # boundary derivatives are kept verbatim so the outer junctions stay C2
    # in the raw segment parameter (they already carry the chord scale of
    # the untouched neighbors)
    end = float(window.n_segments)
    segs = PiecewisePath.from_waypoints(
        w, window.deriv(0.0), window.deriv(0.0, 2),
        window.deriv(end), window.deriv(end, 2)).segments
    return PiecewisePath(path.segments[:j_s] + segs + path.segments[j_e:])


def deform_until_safe(path: PiecewisePath, world: World, params: DeformParams,
                      t: float = 0.0, s_progress: float = 0.0,
                      rng: np.random.Generator | None = None) -> tuple[PiecewisePath, int]:
    """Repeat single deformations until the path ahead is clear or the
    iteration cap is hit.  Returns (path, number of deformations applied)."""
    prev_normal = None
    for k in range(params.max_deforms_per_check):
        unsafe = find_unsafe(path, world, params.d_check, t, s_progress,
                             params.check_resolution)
        if unsafe is None:
            return path, k
        path, prev_normal = deform(path, unsafe, params, s_progress, rng, prev_normal)
    return path, params.max_deforms_per_check


def track_kinematic(state: Angle3DState, path: PiecewisePath,
                    params: DeformParams) -> tuple[float, float, float]:
    """Pure-pursuit guidance u_mu = k_mu tanh(c (mu_d - mu)) for the
    azimuth/flight-path angles toward a lookahead target; constant speed."""
    s0 = path.closest_param(state.p)
    _, target = path.point_ahead(s0, params.lookahead)
    v_d = target - state.p
    if np.linalg.norm(v_d) < 1e-9:
        return params.v, 0.0, 0.0
    beta_d = float(np.arctan2(v_d[1], v_d[0]))
    alpha_d = float(np.arctan2(v_d[2], np.hypot(v_d[0], v_d[1])))
    u_beta = params.k_beta * np.tanh(params.c * angle_diff(beta_d, state.beta))
    u_alpha = params.k_alpha * np.tanh(params.c * angle_diff(alpha_d, state.alpha))
    return params.v, float(u_beta), float(u_alpha)


# ---------------------------------------------------------------------------
# Third-order smooth reference model (jerk / angular-acceleration inputs)
# ---------------------------------------------------------------------------

@dataclass
class RefModelState:
    p: np.ndarray
    beta: float
    alpha: float
    omega_beta: float
    omega_alpha: float
    v: float
    accel: float

    def heading(self) -> np.ndarray:
        ca = np.cos(self.alpha)
        return np.array([np.cos(self.beta) * ca, np.sin(self.beta) * ca,
                         np.sin(self.alpha)])


@dataclass(frozen=True)
class RefModelGains:
    c1_v: float = 1.0
    c2_v: float = 3.0
    c1_ang: float = 1.5
    c2_ang: float = 4.0
    gamma1: float = 2.0
    gamma2: float = 2.0
    v_max: float = 2.0
    lookahead: float = 1.0


def reference_model_step(ref: RefModelState, path: PiecewisePath, v_d: float,
                         gains: RefModelGains, dt: float) -> RefModelState:
    """One step of the third-order reference generator: sliding surfaces
    sigma_mu = mu_dot + c1 tanh(gamma1 (mu - mu_d)) driven by bounded jerk and
    angular accelerations u_mu = -c2 tanh(gamma2 sigma_mu)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    s0 = path.closest_param(ref.p)
    _, target = path.point_ahead(s0, gains.lookahead)
    v_vec = target - ref.p
    if np.linalg.norm(v_vec) > 1e-9:
        beta_d = float(np.arctan2(v_vec[1], v_vec[0]))
        alpha_d = float(np.arctan2(v_vec[2], np.hypot(v_vec[0], v_vec[1])))
    else:
        beta_d, alpha_d = ref.beta, ref.alpha

    sig_v = ref.accel + gains.c1_v * np.tanh(gains.gamma1 * (ref.v - v_d))
    jerk = -gains.c2_v * np.tanh(gains.gamma2 * sig_v)
    sig_b = ref.omega_beta + gains.c1_ang * np.tanh(
        gains.gamma1 * angle_diff(ref.beta, beta_d))
    u_beta = -gains.c2_ang * np.tanh(gains.gamma2 * sig_b)
    sig_a = ref.omega_alpha + gains.c1_ang * np.tanh(
        gains.gamma1 * angle_diff(ref.alpha, alpha_d))
    u_alpha = -gains.c2_ang * np.tanh(gains.gamma2 * sig_a)

    ca = np.cos(ref.alpha)
    dp = ref.v * np.array([np.cos(ref.beta) * ca, np.sin(ref.beta) * ca,
                           np.sin(ref.alpha)])
    p1 = ref.p + dp * dt
    beta1 = ref.beta + ref.omega_beta * dt
    alpha1 = ref.alpha + ref.omega_alpha * dt
    v1 = float(np.clip(ref.v + ref.accel * dt, 0.0, gains.v_max))
    return RefModelState(p1, beta1, alpha1,
                         ref.omega_beta + u_beta * dt,
                         ref.omega_alpha + u_alpha * dt,
                         v1, ref.accel + jerk * dt)


def ref_velocity(ref: RefModelState) -> np.ndarray:
    return ref.v * ref.heading()


def ref_acceleration(ref: RefModelState) -> np.ndarray:
    """Analytic acceleration of the reference point (chain rule through the
    heading angles)."""
    cb, sb = np.cos(ref.beta), np.sin(ref.beta)
    ca, sa = np.cos(ref.alpha), np.sin(ref.alpha)
    h = np.array([cb * ca, sb * ca, sa])
    dh = (ref.omega_beta * np.array([-sb * ca, cb * ca, 0.0])
          + ref.omega_alpha * np.array([-cb * sa, -sb * sa, ca]))
    return ref.accel * h + ref.v * dh


class DeformNavigator:
    """Ch.6-style executor: per control tick, check the path ahead, deform
    until safe, then track with the pure-pursuit guidance law."""

    def __init__(self, params: DeformParams, world: World, start: np.ndarray,
                 goal: np.ndarray, rng: np.random.Generator | None = None,
                 segment_length: float = 1.0):
        self.params = params
        self.world = world
        self.goal = np.asarray(goal, dtype=float)
        self.rng = rng or np.random.default_rng(0)
        self.path = PiecewisePath.straight(start, goal, segment_length)
        self.deform_events: list[tuple[int, int]] = []
        self.hover_events: list[int] = []

    def control(self, state: Angle3DState, t: float, tick: int) -> tuple[float, float, float]:
        s_prog = self.path.closest_param(state.p)
        new_path, n_def = deform_until_safe(self.path, self.world, self.params,
                                            t, s_prog, self.rng)
        if n_def:
            self.path = new_path
            self.deform_events.append((tick, n_def))
        if np.linalg.norm(state.p - self.goal) < 0.3:
            return 0.0, 0.0, 0.0
        v, ub, ua = track_kinematic(state, self.path, self.params)
        # a violation still unresolved just ahead slows the vehicle down so
        # the deformation loop gets more ticks before the region is reached;
        # a static blockage on top of the vehicle parks it outright
        left = find_unsafe(self.path, self.world, self.params.d_safe, t,
                           s_prog, self.params.check_resolution)
        if left is not None and left.s_lo < s_prog + 2.0:
            moving = self.world.obstacles[left.obstacle_id].velocity_bound() > 1e-9
            if not moving:
                # static blockage: hold back until the deformer clears it
                # (movers are evaded at speed on the deformed path instead)
                self.hover_events.append(tick)
                gap = max(left.s_lo - s_prog, 0.0)
                if gap < 0.8:
                    return 0.0, 0.0, 0.0
                v *= float(np.clip(gap / 2.0, 0.3, 1.0))
        return v, ub, ua
