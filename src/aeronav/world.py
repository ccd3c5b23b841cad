"""Ground-truth obstacle world, synthetic sensing and distance queries.

Obstacles are primitives (sphere/disc, cylinder, ellipsoid, polygon wall)
plus a moving wrapper.  A `World` is an immutable snapshot apart from the
time argument threaded through queries; moving obstacles are evaluated at
the query time, so all reads are parallel-safe.

Distances are to the obstacle as a set: zero inside.  Spheres, cylinders
and ellipsoids are exact (the ellipsoid solves the standard one-dimensional
distance equation); walls use exact point-segment distances.  Sensing is
omnidirectional: every point within range, with optional Gaussian noise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .geom import point_segment_distance

_INF = float("inf")


class QueryError(Exception):
    pass


class Obstacle:
    """Base: subclasses implement distance(p, t) -> (d, closest_point)."""
    known: bool = True

    def distance(self, p: np.ndarray, t: float = 0.0) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def velocity_bound(self) -> float:
        return 0.0


@dataclass
class Sphere(Obstacle):
    """Sphere in 3D or disc in 2D, matching the dimension of `center`."""
    center: np.ndarray
    radius: float
    known: bool = True

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.radius <= 0.0:
            raise ValueError("sphere radius must be positive")

    def distance(self, p, t=0.0):
        r = np.asarray(p, dtype=float) - self.center
        rho = float(np.linalg.norm(r))
        if rho < 1e-12:
            q = self.center + np.eye(len(self.center))[0] * self.radius
            return 0.0, q
        # inside: distance to the set is zero, closest surface point kept so
        # callers still get a meaningful exit direction
        q = self.center + r * (self.radius / rho)
        return max(rho - self.radius, 0.0), q


@dataclass
class Cylinder(Obstacle):
    """Finite solid cylinder: axis from `base` along unit `axis`, given
    radius and height.  3D only."""
    base: np.ndarray
    axis: np.ndarray
    radius: float
    height: float
    known: bool = True

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        a = np.asarray(self.axis, dtype=float)
        self.axis = a / np.linalg.norm(a)
        if self.radius <= 0.0 or self.height <= 0.0:
            raise ValueError("cylinder extents must be positive")

    def distance(self, p, t=0.0):
        p = np.asarray(p, dtype=float)
        r = p - self.base
        h = float(np.dot(r, self.axis))
        radial = r - h * self.axis
        rho = float(np.linalg.norm(radial))
        dz = max(-h, h - self.height, 0.0)
        dr = max(rho - self.radius, 0.0)
        rad_dir = radial / rho if rho > 1e-12 else _any_perp(self.axis)
        if dz == 0.0 and dr == 0.0:
            # inside: nearest surface point for the exit direction
            gap_r = self.radius - rho
            gap_lo, gap_hi = h, self.height - h
            if gap_r <= min(gap_lo, gap_hi):
                q = self.base + h * self.axis + self.radius * rad_dir
            elif gap_lo <= gap_hi:
                q = self.base + rho * rad_dir
            else:
                q = self.base + self.height * self.axis + rho * rad_dir
            return 0.0, q
        hc = float(np.clip(h, 0.0, self.height))
        q = self.base + hc * self.axis + min(rho, self.radius) * rad_dir
        return float(np.hypot(dr, dz)), q


@dataclass
class Ellipsoid(Obstacle):
    """Ellipsoid with semi-axes `semi` and optional rotation (body->world)."""
    center: np.ndarray
    semi: np.ndarray
    rotation: np.ndarray | None = None
    known: bool = True

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.semi = np.asarray(self.semi, dtype=float)
        if np.any(self.semi <= 0.0):
            raise ValueError("ellipsoid semi-axes must be positive")
        if self.rotation is None:
            self.rotation = np.eye(len(self.center))
        else:
            self.rotation = np.asarray(self.rotation, dtype=float)

    def to_body(self, p: np.ndarray) -> np.ndarray:
        return self.rotation.T @ (np.asarray(p, dtype=float) - self.center)

    def to_world(self, q: np.ndarray) -> np.ndarray:
        return self.rotation @ np.asarray(q, dtype=float) + self.center

    def level(self, p: np.ndarray, t: float = 0.0) -> float:
        """h1(p): negative inside, zero on the surface."""
        q = self.to_body(p)
        return float(np.sum((q / self.semi) ** 2) - 1.0)

    def distance(self, p, t=0.0):
        q = self.to_body(p)
        a2 = self.semi ** 2
        if np.sum((q / self.semi) ** 2) <= 1.0:
            # inside: radial surface point (direction anchor, not the true
            # nearest) -- distance to the set is zero either way
            qn = np.linalg.norm(q / self.semi)
            if qn < 1e-12:
                return 0.0, self.to_world(np.array([self.semi[0], 0.0, 0.0])
                                          if len(self.semi) == 3 else self.semi)
            return 0.0, self.to_world(q / qn)

        # closest point q* = a_i^2 q_i / (a_i^2 + s); s > 0 solves F(s) = 1
        def f(s):
            return float(np.sum((a2 * q / (a2 + s)) ** 2 / a2) - 1.0)

        hi = float(np.linalg.norm(q) * np.max(self.semi) + np.max(a2))
        while f(hi) > 0.0:
            hi *= 2.0
        s = brentq(f, 0.0, hi, xtol=1e-12, rtol=8.9e-16)
        qs = a2 * q / (a2 + s)
        return float(np.linalg.norm(q - qs)), self.to_world(qs)


@dataclass
class Wall(Obstacle):
    """Polygon wall: polyline through `vertices`, closed if `loop`."""
    vertices: np.ndarray
    loop: bool = False
    known: bool = True

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if len(self.vertices) < 2:
            raise ValueError("wall needs at least two vertices")

    def segments(self):
        v = self.vertices
        segs = [(v[i], v[i + 1]) for i in range(len(v) - 1)]
        if self.loop:
            segs.append((v[-1], v[0]))
        return segs

    def distance(self, p, t=0.0):
        best, bq = _INF, None
        for a, b in self.segments():
            d, q = point_segment_distance(np.asarray(p, dtype=float), a, b)
            if d < best:
                best, bq = d, q
        return best, bq


@dataclass
class Moving(Obstacle):
    """Wraps a primitive with a rigid translation over time.

    kind="linear": offset = velocity * t.
    kind="sinusoid": offset = amplitude * sin(omega t + phase) * direction.
    """
    shape: Obstacle
    kind: str = "linear"
    velocity: np.ndarray | None = None
    direction: np.ndarray | None = None
    amplitude: float = 0.0
    omega: float = 0.0
    phase: float = 0.0
    known: bool = False

    def __post_init__(self):
        if self.kind not in ("linear", "sinusoid"):
            raise ValueError(f"unknown motion kind {self.kind!r}")
        if self.velocity is not None:
            self.velocity = np.asarray(self.velocity, dtype=float)
        if self.direction is not None:
            self.direction = np.asarray(self.direction, dtype=float)

    def offset(self, t: float) -> np.ndarray:
        if self.kind == "linear":
            return self.velocity * t
        return self.amplitude * np.sin(self.omega * t + self.phase) * self.direction

    def velocity_bound(self) -> float:
        if self.kind == "linear":
            return float(np.linalg.norm(self.velocity))
        return abs(self.amplitude * self.omega) * float(np.linalg.norm(self.direction))

    def distance(self, p, t=0.0):
        off = self.offset(t)
        d, q = self.shape.distance(np.asarray(p, dtype=float) - off, 0.0)
        return d, q + off


def _any_perp(a: np.ndarray) -> np.ndarray:
    ref = np.zeros_like(a)
    ref[int(np.argmin(np.abs(a)))] = 1.0
    v = np.cross(a, ref)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class SensingModel:
    """Abstract omnidirectional range sensor: everything within d_sensing is
    seen, with i.i.d. Gaussian noise per axis."""
    d_sensing: float
    sigma: float = 0.0

    def __post_init__(self):
        if self.d_sensing <= 0.0:
            raise ValueError("d_sensing must be positive")
        if self.sigma < 0.0:
            raise ValueError("noise sigma must be nonnegative")


class World:
    """Immutable obstacle collection with distance / visibility queries."""

    def __init__(self, obstacles: list[Obstacle] | None = None, bounds=None):
        self.obstacles: list[Obstacle] = list(obstacles or [])
        self.bounds = None if bounds is None else np.asarray(bounds, dtype=float)

    def nearest_obstacle(self, p: np.ndarray, t: float = 0.0,
                         known_only: bool = False) -> tuple[float, np.ndarray, int]:
        """(distance, closest surface point, obstacle index).  Ties broken by
        lowest index for determinism."""
        pool = [(i, o) for i, o in enumerate(self.obstacles)
                if (o.known or not known_only)]
        if not pool:
            raise QueryError("nearest_obstacle on an empty world")
        best_d, best_q, best_i = _INF, None, -1
        for i, o in pool:
            d, q = o.distance(p, t)
            if d < best_d - 1e-15:
                best_d, best_q, best_i = d, q, i
        return best_d, best_q, best_i

    def batch_distance(self, points: np.ndarray, t: float = 0.0,
                       known_only: bool = False) -> np.ndarray:
        """Min distance to any obstacle for each of the (N, dim) points."""
        points = np.asarray(points, dtype=float)
        out = np.full(len(points), _INF)
        for o in self.obstacles:
            if known_only and not o.known:
                continue
            out = np.minimum(out, _batch_obstacle_distance(o, points, t))
        return out

    def segment_clear(self, a: np.ndarray, b: np.ndarray, margin: float = 0.0,
                      t: float = 0.0, resolution: float = 0.05,
                      known_only: bool = False) -> bool:
        """True if every sample along segment ab keeps > margin clearance."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        length = float(np.linalg.norm(b - a))
        n = max(2, int(np.ceil(length / resolution)) + 1)
        if not any(o.known or not known_only for o in self.obstacles):
            return True
        pts = a[None, :] + np.linspace(0.0, 1.0, n)[:, None] * (b - a)[None, :]
        return bool(np.all(self.batch_distance(pts, t, known_only) > margin))

    def point_free(self, p: np.ndarray, margin: float = 0.0, t: float = 0.0,
                   known_only: bool = False) -> bool:
        if not any(o.known or not known_only for o in self.obstacles):
            return True
        return self.nearest_obstacle(p, t, known_only)[0] > margin

    def raycast_2d(self, origin: np.ndarray, angles: np.ndarray, max_range: float,
                   t: float = 0.0) -> np.ndarray:
        """Ranges along rays from origin at absolute angles (2D worlds).
        Misses report max_range."""
        origin = np.asarray(origin, dtype=float)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        ranges = np.full(len(angles), max_range)
        for o in self.obstacles:
            ranges = np.minimum(ranges, _ray_ranges(o, origin, dirs, max_range, t))
        return ranges


def _batch_obstacle_distance(o: Obstacle, pts: np.ndarray, t: float) -> np.ndarray:
    """Vectorized set-distance from many points to one obstacle."""
    if isinstance(o, Moving):
        return _batch_obstacle_distance(o.shape, pts - o.offset(t)[None, :], 0.0)
    if isinstance(o, Sphere):
        return np.maximum(np.linalg.norm(pts - o.center[None, :], axis=1) - o.radius, 0.0)
    if isinstance(o, Cylinder):
        r = pts - o.base[None, :]
        h = r @ o.axis
        radial = r - h[:, None] * o.axis[None, :]
        rho = np.linalg.norm(radial, axis=1)
        dz = np.maximum(np.maximum(-h, h - o.height), 0.0)
        dr = np.maximum(rho - o.radius, 0.0)
        return np.hypot(dr, dz)
    if isinstance(o, Wall):
        best = np.full(len(pts), _INF)
        for a, b in o.segments():
            ab = b - a
            denom = float(np.dot(ab, ab))
            if denom < 1e-18:
                d = np.linalg.norm(pts - a[None, :], axis=1)
            else:
                s = np.clip((pts - a[None, :]) @ ab / denom, 0.0, 1.0)
                q = a[None, :] + s[:, None] * ab[None, :]
                d = np.linalg.norm(pts - q, axis=1)
            best = np.minimum(best, d)
        return best
    # ellipsoids and anything exotic: exact per-point query
    return np.array([o.distance(p, t)[0] for p in pts])


def _ray_ranges(o: Obstacle, origin, dirs, max_range, t) -> np.ndarray:
    n = len(dirs)
    if isinstance(o, Moving):
        return _ray_ranges(o.shape, origin - o.offset(t), dirs, max_range, 0.0)
    if isinstance(o, Sphere):
        oc = origin - o.center
        b = dirs @ oc
        c = float(np.dot(oc, oc)) - o.radius ** 2
        disc = b * b - c
        hit = disc >= 0.0
        s = np.full(n, np.inf)
        sq = np.sqrt(np.maximum(disc, 0.0))
        t0 = -b - sq
        t1 = -b + sq
        near = np.where(t0 >= 0.0, t0, np.where(t1 >= 0.0, 0.0, np.inf))
        s[hit] = near[hit]
        return np.minimum(s, max_range)
    if isinstance(o, Ellipsoid):
        # map to unit-sphere space
        oc = (origin - o.center) / o.semi
        dd = dirs / o.semi
        aa = np.sum(dd * dd, axis=1)
        b = dd @ oc
        c = float(np.dot(oc, oc)) - 1.0
        disc = b * b - aa * c
        hit = disc >= 0.0
        s = np.full(n, np.inf)
        sq = np.sqrt(np.maximum(disc, 0.0))
        t0 = (-b - sq) / aa
        t1 = (-b + sq) / aa
        near = np.where(t0 >= 0.0, t0, np.where(t1 >= 0.0, 0.0, np.inf))
        s[hit] = near[hit]
        return np.minimum(s, max_range)
    if isinstance(o, Wall):
        s = np.full(n, max_range)
        for a, b in o.segments():
            s = np.minimum(s, _ray_segment(origin, dirs, a, b, max_range))
        return s
    raise QueryError(f"raycast unsupported for {type(o).__name__}")


def _ray_segment(origin, dirs, a, b, max_range) -> np.ndarray:
    """Vectorized 2D ray/segment intersection ranges."""
    e = b - a
    w = a - origin
    denom = dirs[:, 0] * (-e[1]) - dirs[:, 1] * (-e[0])
    out = np.full(len(dirs), max_range)
    ok = np.abs(denom) > 1e-12
    t_ray = (w[0] * (-e[1]) - w[1] * (-e[0])) / np.where(ok, denom, 1.0)
    t_seg = (dirs[:, 0] * w[1] - dirs[:, 1] * w[0]) / np.where(ok, denom, 1.0)
    hit = ok & (t_ray >= 0.0) & (t_seg >= 0.0) & (t_seg <= 1.0)
    out[hit] = np.minimum(t_ray[hit], max_range)
    return out


def sense_points(p: np.ndarray, points: np.ndarray, model: SensingModel,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Subset of `points` within range, with Gaussian noise added from the
    caller's seeded stream.  May be empty."""
    points = np.asarray(points, dtype=float)
    d = np.linalg.norm(points - np.asarray(p, dtype=float), axis=1)
    out = points[d <= model.d_sensing]
    if model.sigma > 0.0:
        if rng is None:
            raise ValueError("noisy sensing requires an rng")
        out = out + rng.normal(0.0, model.sigma, size=out.shape)
    return out
