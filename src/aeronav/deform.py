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
from .geom import (angle_diff, cross3, heading_from_angles, norm, rodrigues_rotate, unit,
                   unit_or_zero)
from .plants import Angle3DState
from .world import World


ALPHA0 = np.pi / 2                   # rotation angle of the tangent
CHECK_RESOLUTION = 0.1               # along-path sampling for the checker
MAX_DEFORMS_PER_CHECK = 10
LOOKAHEAD = 1.0                      # guidance and reference target distance
K_BETA = 2.0                         # guidance gains
K_ALPHA = 2.0
C = 3.0                              # guidance tanh steepness


@dataclass(frozen=True)
class DeformParams:
    safety_factor: float = 0.6       # deformation magnitude gamma [m]
    d_safe: float = 0.5
    v: float = 1.0                   # constant tracking speed
    check_margin: float = 0.35       # extra path clearance for tracking error

    @property
    def d_check(self) -> float:
        return self.d_safe + self.check_margin

    def __post_init__(self):
        if self.safety_factor < 0.0:
            raise ValueError("safety factor must be nonnegative")
        if self.check_margin < 0.0:
            # d_check >= d_safe: a path clear at d_check is clear at d_safe
            raise ValueError("check margin must be nonnegative")


@dataclass
class UnsafePoint:
    s_lo: float             # violating interval around the closest approach
    s_hi: float
    s: float                # interval midpoint: anchor for the deformation
    d: float                # clearance at the anchor
    closest: np.ndarray     # nearest obstacle surface point to the anchor
    worst: np.ndarray       # the path sample of the closest approach


def find_unsafe(path: PiecewisePath, world: World, d_safe: float,
                t: float = 0.0, s_from: float = 0.0,
                resolution: float = 0.1) -> UnsafePoint | None:
    """Scan the path from s_from for its closest approach to any obstacle;
    when its clearance violates d_safe, report the contiguous violating
    interval around it, anchored at the interval's midpoint."""
    params, pts = path.sample(per_segment=max(8, int(np.ceil(1.0 / resolution * 2))))
    # params increase strictly: the rows from s_from on, as views
    k = int(np.searchsorted(params, s_from))
    params, pts = params[k:], pts[k:]
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
    d_mid, q_mid, _ = world.nearest_obstacle(pts[mid], t)
    return UnsafePoint(float(params[lo]), float(params[hi]), float(params[mid]),
                       float(d_mid), q_mid, pts[i_best])


def safe_direction(path: PiecewisePath, unsafe: UnsafePoint, params: DeformParams,
                   prev_normal: np.ndarray | None = None) -> np.ndarray:
    """v_safe = gamma * R_N(alpha0) T for the deformation at the unsafe point,
    with N = T x E (E toward the obstacle edge); when T and E are collinear
    the normal falls back to the previous one or a path normal.
    """
    tangent = path.tangent(unsafe.s)
    p_c = path.point(unsafe.s)
    e = unit_or_zero(unsafe.closest - p_c)
    # direction of growing clearance: away from the closest surface point
    # outside, toward the nearest exit when the path runs inside the body
    away = e if unsafe.d <= 0.0 else -e
    away = away - np.dot(away, tangent) * tangent  # along-path pushes add nothing
    if norm(away) < 0.3:
        # exit direction almost parallel to the path (aimed at the body's
        # core): keep pushing the previous way, else take a path normal
        if prev_normal is not None and norm(prev_normal) > 1e-9:
            away = unit(cross3(unit(prev_normal), tangent))
        else:
            ref = np.array([0.0, 0.0, 1.0])
            if abs(np.dot(tangent, ref)) > 0.9:
                ref = np.array([1.0, 0.0, 0.0])
            away = unit(cross3(tangent, ref))
    else:
        away = unit(away)
    normal = unit(cross3(tangent, away))
    # rotate the tangent toward growing clearance
    cand = rodrigues_rotate(tangent, normal, ALPHA0)
    if np.dot(cand, away) < 0.0:
        cand = rodrigues_rotate(tangent, normal, -ALPHA0)
    return params.safety_factor * cand


def deform(path: PiecewisePath, unsafe: UnsafePoint, params: DeformParams,
           s_progress: float = 0.0,
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
    while (norm(path.point(float(i_s)) - path.point(float(i_e))) < 0.5
           and (i_e < path.n_segments or i_s > int(np.ceil(s_progress)))):
        if i_e < path.n_segments:
            i_e += 1
        else:
            i_s -= 1
    anchor = float(np.clip(unsafe.s, i_s + 0.05, i_e - 0.05))
    v_safe = safe_direction(path, unsafe, params, prev_normal)
    p_c_new = path.point(anchor) + v_safe
    for q in (path.point(float(i_s)), path.point(float(i_e))):
        if norm(p_c_new - q) < 1e-6:
            p_c_new = p_c_new + 1e-5 * unit_or_zero(v_safe)
    normal_used = cross3(path.tangent(anchor), unit_or_zero(v_safe))
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
                      t: float = 0.0, s_progress: float = 0.0) -> tuple[PiecewisePath, int]:
    """Repeat single deformations until the path ahead is clear or the
    iteration cap is hit.  Returns (path, number of deformations applied)."""
    prev_normal = None
    for k in range(MAX_DEFORMS_PER_CHECK):
        unsafe = find_unsafe(path, world, params.d_check, t, s_progress,
                             CHECK_RESOLUTION)
        if unsafe is None:
            return path, k
        path, prev_normal = deform(path, unsafe, params, s_progress, prev_normal)
    return path, MAX_DEFORMS_PER_CHECK


def _lookahead_angles(p: np.ndarray, path: PiecewisePath) -> tuple[float, float] | None:
    """Azimuth and flight-path angle (beta_d, alpha_d) from p toward the
    point LOOKAHEAD past p's closest path point; None when p is on it."""
    s0 = path.closest_param(p)
    _, target = path.point_ahead(s0, LOOKAHEAD)
    v_d = target - p
    if norm(v_d) < 1e-9:
        return None
    return (float(np.arctan2(v_d[1], v_d[0])),
            float(np.arctan2(v_d[2], np.hypot(v_d[0], v_d[1]))))


def track_kinematic(state: Angle3DState, path: PiecewisePath,
                    params: DeformParams) -> tuple[float, float, float]:
    """Pure-pursuit guidance u_mu = k_mu tanh(c (mu_d - mu)) for the
    azimuth/flight-path angles toward a lookahead target; constant speed."""
    angles = _lookahead_angles(state.p, path)
    if angles is None:
        return params.v, 0.0, 0.0
    beta_d, alpha_d = angles
    u_beta = K_BETA * np.tanh(C * angle_diff(beta_d, state.beta))
    u_alpha = K_ALPHA * np.tanh(C * angle_diff(alpha_d, state.alpha))
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


# gains of the reference model's sliding surfaces, speed and angle loops
REF_C1_V = 1.0
REF_C2_V = 3.0
REF_C1_ANG = 1.5
REF_C2_ANG = 4.0
REF_GAMMA1 = 2.0
REF_GAMMA2 = 2.0


def reference_model_step(ref: RefModelState, path: PiecewisePath, v_d: float,
                         v_max: float, dt: float) -> RefModelState:
    """One step of the third-order reference generator: sliding surfaces
    sigma_mu = mu_dot + c1 tanh(gamma1 (mu - mu_d)) driven by bounded jerk and
    angular accelerations u_mu = -c2 tanh(gamma2 sigma_mu); the speed is
    clipped to [0, v_max]."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    beta_d, alpha_d = _lookahead_angles(ref.p, path) or (ref.beta, ref.alpha)

    sig_v = ref.accel + REF_C1_V * np.tanh(REF_GAMMA1 * (ref.v - v_d))
    jerk = -REF_C2_V * np.tanh(REF_GAMMA2 * sig_v)
    sig_b = ref.omega_beta + REF_C1_ANG * np.tanh(
        REF_GAMMA1 * angle_diff(ref.beta, beta_d))
    u_beta = -REF_C2_ANG * np.tanh(REF_GAMMA2 * sig_b)
    sig_a = ref.omega_alpha + REF_C1_ANG * np.tanh(
        REF_GAMMA1 * angle_diff(ref.alpha, alpha_d))
    u_alpha = -REF_C2_ANG * np.tanh(REF_GAMMA2 * sig_a)

    p1 = ref.p + ref_velocity(ref) * dt
    beta1 = ref.beta + ref.omega_beta * dt
    alpha1 = ref.alpha + ref.omega_alpha * dt
    v1 = float(np.clip(ref.v + ref.accel * dt, 0.0, v_max))
    return RefModelState(p1, beta1, alpha1,
                         ref.omega_beta + u_beta * dt,
                         ref.omega_alpha + u_alpha * dt,
                         v1, ref.accel + jerk * dt)


def ref_velocity(ref: RefModelState) -> np.ndarray:
    return ref.v * heading_from_angles(ref.beta, ref.alpha)


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
                 goal: np.ndarray, segment_length: float = 1.0):
        self.params = params
        self.world = world
        self.goal = np.asarray(goal, dtype=float)
        self.path = PiecewisePath.straight(start, goal, segment_length)
        self.events: list[tuple[int, str, dict]] = []

    def deform_ahead(self, p: np.ndarray, t: float, tick: int) -> tuple[float, int]:
        """Deform the path ahead of its point closest to p until safe, and
        record a deform event if any; returns (that param, deformations)."""
        s_prog = self.path.closest_param(p)
        self.path, n_def = deform_until_safe(self.path, self.world, self.params,
                                             t, s_prog)
        if n_def:
            self.events.append((tick, "deform", {"count": n_def}))
        return s_prog, n_def

    def control(self, state: Angle3DState, t: float, tick: int) -> tuple[float, float, float]:
        s_prog, n_def = self.deform_ahead(state.p, t, tick)
        if norm(state.p - self.goal) < 0.3:
            return 0.0, 0.0, 0.0
        v, ub, ua = track_kinematic(state, self.path, self.params)
        # a violation still unresolved just ahead slows the vehicle down so
        # the deformation loop gets more ticks before the region is reached;
        # a static blockage on top of the vehicle parks it outright.  Below
        # the cap, deform_until_safe stopped on a clear scan of this path at
        # d_check >= d_safe, so only a loop stopped at its cap can leave a
        # violation.
        left = None
        if n_def == MAX_DEFORMS_PER_CHECK:
            left = find_unsafe(self.path, self.world, self.params.d_safe, t,
                               s_prog, CHECK_RESOLUTION)
        if left is not None and left.s_lo < s_prog + 2.0:
            oid = self.world.nearest_obstacle(left.worst, t)[2]
            moving = self.world.obstacles[oid].velocity_bound() > 1e-9
            if not moving:
                # static blockage: hold back until the deformer clears it
                # (movers are evaded at speed on the deformed path instead)
                self.events.append((tick, "hover", {}))
                gap = max(left.s_lo - s_prog, 0.0)
                if gap < 0.8:
                    return 0.0, 0.0, 0.0
                v *= float(np.clip(gap / 2.0, 0.3, 1.0))
        return v, ub, ua
