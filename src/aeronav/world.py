"""Ground-truth obstacle world, synthetic sensing and distance queries.

Obstacles are records of primitives (sphere/disc, cylinder, axis-aligned
ellipsoid, polyline wall), each static or under a constant-velocity
wrapper: fields and their checks, no geometry.  A `World` packs them into
one table of arrays per primitive kind, and each primitive's geometry
exists once, on those rows.  Every distance is read from the table: the
nearest obstacle, the batch distance, the raycast, and
`World.distance(i, p, t)` for obstacle i alone.  A `World` is an immutable
snapshot apart from the time argument threaded through queries; moving
obstacles are evaluated at the query time, so all reads are parallel-safe.

Distances are to the obstacle as a set: zero inside, and NaN for a NaN
point.  Spheres, cylinders and ellipsoids are exact; walls use exact
point-segment distances.  The ellipsoid solves the one-dimensional
distance equation (Eberly, "Distance from a point to an ellipse, an
ellipsoid, or a hyperellipsoid") with `brentq`, this module's own Brent
solver (Brent 1973, "Algorithms for Minimization without Derivatives"): a
port of scipy's on Python floats that takes the same iterates, so scipy is
never imported here.  Sensing is omnidirectional: every point within
range, with optional Gaussian noise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import (EPS, blas_dots, blas_matvecs, blas_norms, column_norms, cross3,
                   norm, row_norms, sq_distances, sub_columns)

_INF = float("inf")
# elements of a batch query's largest temporary, (rows, points, dim)
_BLOCK = 16384
# brentq's tolerances and iteration limit, as the ellipsoid distance used them
_XTOL, _RTOL, _MAXITER = 1e-12, 8.9e-16, 100


class QueryError(Exception):
    pass


def brentq(f, a: float, b: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method: a line-for-line port of scipy.optimize.brentq (its C solver,
    scipy/optimize/Zeros/brentq.c) on Python floats, at xtol=_XTOL,
    rtol=_RTOL, maxiter=_MAXITER.  The same steps in the same operation
    order give the same iterates, bit for bit, and the same errors:
    ValueError for a same-sign bracket or a NaN value of f, RuntimeError
    after _MAXITER iterations."""
    def fx(x):
        y = float(f(x))
        if y != y:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return y

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 * delta
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:        # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                   # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:   # C's inf or NaN, which fails the test below
                stry = _INF
            limit = 3 * abs(sbis) - delta
            if abs(spre) < limit:       # C's MIN(|spre|, limit)
                limit = abs(spre)
            if 2 * abs(stry) < limit:   # good short step
                spre, scur = scur, stry
            else:                       # bisect
                spre = scur = sbis
        else:                           # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")


class Obstacle:
    """Base of the obstacle records: a primitive's fields, checked when it is
    made.  Distances are read from a `World`'s table, never from a record."""
    known: bool = True

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
        self.axis = a / norm(a)
        if self.radius <= 0.0 or self.height <= 0.0:
            raise ValueError("cylinder extents must be positive")


@dataclass
class Ellipsoid(Obstacle):
    """Axis-aligned ellipsoid with semi-axes `semi`."""
    center: np.ndarray
    semi: np.ndarray
    known: bool = True

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.semi = np.asarray(self.semi, dtype=float)
        if np.any(self.semi <= 0.0):
            raise ValueError("ellipsoid semi-axes must be positive")


@dataclass
class Wall(Obstacle):
    """Polygon wall: open polyline through `vertices`."""
    vertices: np.ndarray
    known: bool = True

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if len(self.vertices) < 2:
            raise ValueError("wall needs at least two vertices")


@dataclass
class Moving(Obstacle):
    """Wraps a primitive with a constant-velocity translation: at time t
    the shape is moved by velocity * t."""
    shape: Obstacle
    velocity: np.ndarray
    known: bool = False

    def __post_init__(self):
        self.velocity = np.asarray(self.velocity, dtype=float)

    def velocity_bound(self) -> float:
        return norm(self.velocity)


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
    """Obstacle collection with distance and visibility queries.

    `obstacles` is a tuple of records, and the table every query reads is
    packed from it at construction: one set of arrays per primitive kind
    (sphere centres and radii, cylinder bases, axes and extents, ellipsoid
    centres and semi-axes, wall segments), each row with its obstacle's
    index and constant velocity, zero for a static one.  The rows hold the
    one geometry of each primitive: a query evaluates every row of a kind
    in one stacked expression, and `distance(i, p, t)` answers obstacle i
    alone from the same rows.  Only the ellipsoid is solved one by one,
    and in the nearest query only where it can still win."""

    def __init__(self, obstacles: list[Obstacle] | None = None, bounds=None):
        self.obstacles: tuple[Obstacle, ...] = tuple(obstacles or ())
        self.bounds = None if bounds is None else np.asarray(bounds, dtype=float)
        rows, self._unrayable = {kind: [] for kind in _KINDS}, None
        for i, o in enumerate(self.obstacles):
            kind = type(o.shape if isinstance(o, Moving) else o)
            if kind not in rows:
                raise TypeError("a World holds spheres, cylinders, ellipsoids and walls, "
                                f"each static or Moving, not {type(o).__name__}")
            rows[kind].append((i, o))
            if self._unrayable is None and kind in (Cylinder, Ellipsoid):
                self._unrayable = kind.__name__
        self._kinds = [_KINDS[kind](r) for kind, r in rows.items() if r]
        # obstacle index -> (position of its kind in _kinds, its row there);
        # the ellipsoids' entries are lower bounds, to be solved
        self._row = [None] * len(self.obstacles)
        for k, kind in enumerate(self._kinds):
            for j, i in enumerate(kind.slots.tolist()):
                self._row[i] = (k, j)
        self._bound = [isinstance(self._kinds[k], _Ellipsoids) for k, _ in self._row]
        # raycast rows (discs, then wall segments) into obstacle order
        index = np.concatenate([kind.index for kind in self._kinds] or [np.arange(0)])
        self._ray_order = (None if np.all(index[:-1] <= index[1:])
                           else np.argsort(index, kind="stable"))

    def nearest_obstacle(self, p: np.ndarray, t: float = 0.0):
        """(distance, closest surface point, obstacle index) of the point p;
        of an (N, dim) stack of points, the list of their N results, from
        one stacked evaluation of the table.  Each point scans the distances
        in obstacle order and keeps one that undercuts the best so far by
        more than 1e-15, so ties go to the lowest index; an ellipsoid is
        solved only when its lower bound undercuts.  A NaN distance (a NaN
        query point) comes back as (NaN, NaN point, its obstacle's index)."""
        if not self.obstacles:
            raise QueryError("nearest_obstacle on an empty world")
        p = np.asarray(p, dtype=float)
        found = [kind.nearest(p, t) for kind in self._kinds]
        if len(found) == 1:
            table = found[0][0]
        else:
            table = np.empty(p.shape[:-1] + (len(self.obstacles),))
            for kind, (d, _) in zip(self._kinds, found):
                table[..., kind.slots] = d
        if p.ndim == 1:
            return self._scan(table.tolist(), p, (), found, t)
        return [self._scan(ds, p[n], (n,), found, t) for n, ds in enumerate(table.tolist())]

    def distance(self, i: int, p: np.ndarray, t: float = 0.0) -> tuple:
        """(distance, closest surface point) of obstacle i to the point p at
        time t: zero inside, with the nearest surface point as the exit
        direction.  A NaN point gives (NaN, NaN point)."""
        k, j = self._row[i]
        kind, p = self._kinds[k], np.asarray(p, dtype=float)
        if self._bound[i]:
            return kind.solve(p, t, j)
        d, ctx = kind.nearest(p, t)
        d = float(d[j])
        return d, kind.closest(ctx, (j,), t) if d == d else np.full_like(p, np.nan)

    def _scan(self, ds: list, p: np.ndarray, lead: tuple, found: list, t: float) -> tuple:
        """The nearest of one point p from its row ds of the table; lead
        indexes the point in the kinds' arrays."""
        best_d, best_q, best_i = _INF, None, -1
        for i, d in enumerate(ds):
            if d < best_d - 1e-15:
                q = None
                if self._bound[i]:
                    k, j = self._row[i]
                    d, q = self._kinds[k].solve(p, t, j)
                    if not d < best_d - 1e-15:
                        continue
                best_d, best_q, best_i = d, q, i
            elif d != d:
                return d, np.full_like(p, np.nan), i
        if best_q is None and best_i >= 0:
            k, j = self._row[best_i]
            best_q = self._kinds[k].closest(found[k][1], lead + (j,), t)
        return best_d, best_q, best_i

    def batch_distance(self, points: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Min distance to any obstacle for each of the (N, dim) points."""
        points = np.asarray(points, dtype=float)
        out = np.full(len(points), _INF)
        # rows of a kind in blocks small enough to keep the temporaries in
        # cache and off the allocator's fresh pages
        step = max(1, _BLOCK // max(1, points.size))
        for kind in self._kinds:
            for lo in range(0, len(kind.index), step):
                np.minimum(out, kind.batch(points, t, slice(lo, lo + step)).min(axis=0),
                           out=out)
        return out

    def segment_clear(self, a: np.ndarray, b: np.ndarray, margin: float = 0.0,
                      t: float = 0.0, resolution: float = 0.05) -> bool:
        """True if every sample along segment ab keeps > margin clearance."""
        if not self.obstacles:
            return True
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        n = max(2, int(np.ceil(norm(b - a) / resolution)) + 1)
        pts = a[None, :] + np.linspace(0.0, 1.0, n)[:, None] * (b - a)[None, :]
        return bool(np.all(self.batch_distance(pts, t) > margin))

    def point_free(self, p: np.ndarray, margin: float = 0.0, t: float = 0.0) -> bool:
        return not self.obstacles or self.nearest_obstacle(p, t)[0] > margin

    def raycast_2d(self, origin: np.ndarray, angles: np.ndarray, max_range: float,
                   t: float = 0.0) -> np.ndarray:
        """Ranges along rays from origin at absolute angles (2D worlds of
        discs and walls; other obstacles raise QueryError).  Misses report
        max_range.  The rows of discs and wall segments are reduced in
        obstacle order, the order of the minima they replace."""
        if self._unrayable:
            raise QueryError(f"raycast unsupported for {self._unrayable}")
        if not self._kinds:
            return np.full(len(angles), max_range)
        origin = np.asarray(origin, dtype=float)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        ranges = np.concatenate([kind.rays(origin, dirs, max_range, t)
                                 for kind in self._kinds])
        if self._ray_order is not None:
            ranges = ranges[self._ray_order]
        return np.minimum.reduce(ranges, axis=0, initial=max_range)


class _Kind:
    """The rows of one primitive kind in a World's table: each row's shape,
    the index of its obstacle and that obstacle's constant velocity.  The
    query points enter a moving row's frame as p - v t, and closest points
    leave it by + v t; a static row is left alone.  slots are the obstacle
    indices the kind's results fill, one per obstacle.  The nearest query
    lays its arrays out (..., rows, dim) after the query's own shape (...,
    dim), and the batch query (rows, points, dim), which gives each row's
    gemv its own contiguous matrix of points."""

    def __init__(self, rows):
        self.index = np.array([i for i, _ in rows])
        self.slots = self.index
        obstacles = [o for _, o in rows]
        self.shapes = [o.shape if isinstance(o, Moving) else o for o in obstacles]
        self.moving = np.array([isinstance(o, Moving) for o in obstacles])
        self.any_moving, self.all_moving = bool(self.moving.any()), bool(self.moving.all())
        if self.any_moving:
            dim = len(next(o.velocity for o in obstacles if isinstance(o, Moving)))
            self.velocity = np.array([o.velocity if isinstance(o, Moving) else np.zeros(dim)
                                      for o in obstacles])

    def _offset(self, t: float, rows) -> np.ndarray:
        off = self.velocity[rows] * t
        # p - (+0.0) is p itself, signed zeros included
        return off if self.all_moving else np.where(self.moving[rows, None], off, 0.0)

    def at(self, p: np.ndarray, t: float) -> np.ndarray:
        """The (..., dim) points p in the frame of every row, (..., rows or
        1, dim)."""
        p = p[..., None, :]
        return p - self._offset(t, slice(None)) if self.any_moving else p

    def rows_at(self, points: np.ndarray, t: float, rows) -> np.ndarray:
        """The (N, dim) points in the frame of each of the rows, (rows or 1,
        N, dim)."""
        if not self.any_moving:
            return points[None]
        return sub_columns(points[None], self._offset(t, rows)[:, None, :])

    def into(self, p: np.ndarray, j: int, t: float) -> np.ndarray:
        return p - self.velocity[j] * t if self.any_moving and self.moving[j] else p

    def back(self, q: np.ndarray, j: int, t: float) -> np.ndarray:
        return q + self.velocity[j] * t if self.any_moving and self.moving[j] else q


class _Spheres(_Kind):
    def __init__(self, rows):
        super().__init__(rows)
        self.centre = np.array([s.center for s in self.shapes])
        self.radius = np.array([s.radius for s in self.shapes], dtype=float)
        # Python's square, as the per-disc raycast took it
        self.r2 = np.array([s.radius ** 2 for s in self.shapes], dtype=float)

    def nearest(self, points, t):
        r = self.at(points, t) - self.centre
        rho = blas_norms(r)
        return np.maximum(rho - self.radius, 0.0), (r, rho)

    def closest(self, ctx, at, t):
        """The surface point along r = p - centre, also from inside, so that
        callers still get an exit direction; at the centre, the tip of the
        first axis."""
        r, rho = ctx
        j, rho = at[-1], float(rho[at])
        c, radius = self.centre[j], self.radius[j]
        if rho < 1e-12:
            return self.back(c + np.eye(len(c))[0] * radius, j, t)
        return self.back(c + r[at] * (radius / rho), j, t)

    def batch(self, points, t, rows):
        p = self.rows_at(points, t, rows)
        c = self.centre[rows, None, :]
        rho = column_norms(*(p[..., j] - c[..., j] for j in range(p.shape[-1])))
        return np.maximum(rho - self.radius[rows, None], 0.0)

    def rays(self, origin, dirs, max_range, t):
        oc = self.at(origin, t) - self.centre
        b = blas_matvecs(dirs, oc)
        c = blas_dots(oc, oc) - self.r2
        disc = b * b - c[:, None]
        sq = np.sqrt(np.maximum(disc, 0.0))
        t0 = -b - sq
        t1 = -b + sq
        near = np.where(t0 >= 0.0, t0, np.where(t1 >= 0.0, 0.0, np.inf))
        return np.minimum(np.where(disc >= 0.0, near, np.inf), max_range)


class _Cylinders(_Kind):
    def __init__(self, rows):
        super().__init__(rows)
        self.base = np.array([s.base for s in self.shapes])
        self.axis = np.array([s.axis for s in self.shapes])
        self.radius = np.array([s.radius for s in self.shapes], dtype=float)
        self.height = np.array([s.height for s in self.shapes], dtype=float)

    def nearest(self, points, t):
        r = self.at(points, t) - self.base
        h = blas_dots(r, self.axis)
        radial = r - h[..., None] * self.axis
        rho = blas_norms(radial)
        d = np.hypot(np.maximum(rho - self.radius, 0.0),
                     np.maximum(np.maximum(-h, h - self.height), 0.0))
        return d, (h, radial, rho, d)

    def closest(self, ctx, at, t):
        """The nearest surface point from the axial coordinate h of p - base
        and its radial part; inside too, for the exit direction."""
        h, radial, rho, d = ctx
        j, h, rho = at[-1], float(h[at]), float(rho[at])
        base, axis, radius, height = self.base[j], self.axis[j], self.radius[j], self.height[j]
        rad_dir = radial[at] / rho if rho > 1e-12 else _any_perp(axis)
        if d[at] == 0.0:
            gap_r = radius - rho
            gap_lo, gap_hi = h, height - h
            if gap_r <= min(gap_lo, gap_hi):
                q = base + h * axis + radius * rad_dir
            elif gap_lo <= gap_hi:
                q = base + rho * rad_dir
            else:
                q = base + height * axis + rho * rad_dir
        else:
            q = base + float(np.clip(h, 0.0, height)) * axis + min(rho, radius) * rad_dir
        return self.back(q, j, t)

    def batch(self, points, t, rows):
        r = sub_columns(self.rows_at(points, t, rows), self.base[rows, None, :])
        axis = self.axis[rows]
        h = blas_matvecs(r, axis)
        rho = column_norms(*(r[..., j] - h * axis[:, j, None] for j in range(3)))
        d = np.maximum(rho - self.radius[rows, None], 0.0)
        dz = np.maximum(np.maximum(-h, h - self.height[rows, None]), 0.0)
        off = dz != 0.0     # elsewhere the hypot is the radial gap itself
        if off.any():
            d[off] = np.hypot(d[off], dz[off])
        return d


class _Ellipsoids(_Kind):
    """Nearest-query entries are lower bounds: the centre distance less the
    largest semi-axis (the ellipsoid lies in that ball), less a margin of
    1e-6 absolute and relative, far above the solve's tolerance (1e-12) and
    the rounding of its distance.  `solve` gives the distance itself."""

    def __init__(self, rows):
        super().__init__(rows)
        self.centre = np.array([s.center for s in self.shapes])
        self.semi = np.array([s.semi for s in self.shapes])
        self.a2 = self.semi ** 2
        self.reach = self.semi.max(axis=1)

    def nearest(self, points, t):
        c = row_norms(self.at(points, t) - self.centre)
        return c - self.reach - 1e-6 * (1.0 + c), None

    def solve(self, p, t, j):
        """(distance, closest surface point) of row j to the point p.
        Inside, zero and the radial surface point (a direction anchor, not
        the nearest; at the centre, the tip of the first semi-axis); a NaN
        point gives NaN.  Outside, the closest point is a_i^2 q_i / (a_i^2
        + s) for q = p - centre, where s > 0 solves F(s) = 1 by `brentq`,
        F summed on floats left to right as np.sum adds the few terms."""
        c, semi, a2 = self.centre[j], self.semi[j], self.a2[j]
        q = self.into(p, j, t) - c
        level = np.sum((q / semi) ** 2)
        if level <= 1.0:
            qn = norm(q / semi)
            if qn < 1e-12:
                tip = np.zeros_like(semi)
                tip[0] = semi[0]
                return 0.0, self.back(tip + c, j, t)
            return 0.0, self.back(q / qn + c, j, t)
        if level != level:
            return float(level), np.full_like(q, np.nan)
        terms = list(zip(a2.tolist(), q.tolist()))

        def f(s):
            total = 0.0
            for b, x in terms:
                y = b * x / (b + s)
                total += y * y / b
            return total - 1.0

        hi = float(norm(q) * np.max(semi) + np.max(a2))
        while f(hi) > 0.0:
            hi *= 2.0
        s = brentq(f, 0.0, hi)
        qs = a2 * q / (a2 + s)
        return norm(q - qs), self.back(qs + c, j, t)

    def batch(self, points, t, rows):
        return np.array([[self.solve(p, t, j)[0] for p in points]
                         for j in range(len(self.index))[rows]])


class _Walls(_Kind):
    """One row per wall segment, a wall's segments in order; slots has one
    entry per wall, and `starts` its first row."""

    def __init__(self, rows):
        walls = [o.shape if isinstance(o, Moving) else o for _, o in rows]
        super().__init__([row for row, w in zip(rows, walls) for _ in w.vertices[1:]])
        self.starts = np.flatnonzero(np.diff(self.index, prepend=-1))
        self.ends = np.append(self.starts[1:], len(self.index)).tolist()
        self.slots = self.index[self.starts]
        self.a = np.concatenate([w.vertices[:-1] for w in walls])
        self.ab = np.concatenate([w.vertices[1:] - w.vertices[:-1] for w in walls])
        denom = blas_dots(self.ab, self.ab)
        # the test for a point-like segment, and the batch query's
        self.flat, self.flat_batch = denom < EPS, denom < 1e-18
        self.denom = np.where(self.flat, 1.0, denom)
        self.denom_batch = np.where(self.flat_batch, 1.0, denom)[:, None]

    def nearest(self, points, t):
        p = self.at(points, t)
        w = p - self.a
        s = np.clip(blas_dots(w, self.ab) / self.denom, 0.0, 1.0)
        d = blas_norms(p - (self.a + s[..., None] * self.ab))
        if self.flat.any():
            d = np.where(self.flat, blas_norms(w), d)
        return np.minimum.reduceat(d, self.starts, axis=-1), (s, d)

    def closest(self, ctx, at, t):
        s, d = ctx
        *lead, j = at
        lo = int(self.starts[j])
        # the first of the wall's minima
        k = lo + int(np.argmin(d[(*lead, slice(lo, self.ends[j]))]))
        q = self.a[k].copy() if self.flat[k] else self.a[k] + float(s[(*lead, k)]) * self.ab[k]
        return self.back(q, k, t)

    def batch(self, points, t, rows):
        p = self.rows_at(points, t, rows)
        a, ab, flat = self.a[rows, None, :], self.ab[rows], self.flat_batch[rows]
        w = sub_columns(p, a)
        s = np.clip(blas_matvecs(w, ab) / self.denom_batch[rows], 0.0, 1.0)
        d = column_norms(*(p[..., j] - (a[..., j] + s * ab[:, j, None])
                           for j in range(p.shape[-1])))
        if flat.any():
            d = np.where(flat[:, None], row_norms(w), d)
        return d

    def rays(self, origin, dirs, max_range, t):
        w = self.a - self.at(origin, t)
        e0, e1 = -self.ab[:, 0:1], -self.ab[:, 1:2]
        w0, w1 = w[:, 0:1], w[:, 1:2]
        d0, d1 = dirs[:, 0], dirs[:, 1]
        denom = d0 * e1 - d1 * e0
        ok = np.abs(denom) > 1e-12
        safe = np.where(ok, denom, 1.0)
        t_ray = (w0 * e1 - w1 * e0) / safe
        t_seg = (d0 * w1 - d1 * w0) / safe
        hit = ok & (t_ray >= 0.0) & (t_seg >= 0.0) & (t_seg <= 1.0)
        return np.where(hit, np.minimum(t_ray, max_range), max_range)


def _any_perp(a: np.ndarray) -> np.ndarray:
    ref = np.zeros_like(a)
    ref[int(np.argmin(np.abs(a)))] = 1.0
    v = cross3(a, ref)
    return v / norm(v)


_KINDS = {Sphere: _Spheres, Cylinder: _Cylinders, Wall: _Walls, Ellipsoid: _Ellipsoids}


def in_range(p: np.ndarray, points: np.ndarray, d_sensing: float) -> np.ndarray:
    """Mask of the rows of the (N, 3) float `points` within d_sensing of p."""
    return np.sqrt(sq_distances(points, p)) <= d_sensing


def sense_points(p: np.ndarray, points: np.ndarray, model: SensingModel,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Subset of the (N, 3) `points` within range of p, with Gaussian noise
    added from the caller's seeded stream.  May be empty."""
    points = np.asarray(points, dtype=float)
    out = points[in_range(p, points, model.d_sensing)]
    if model.sigma > 0.0:
        if rng is None:
            raise ValueError("noisy sensing requires an rng")
        out = out + rng.normal(0.0, model.sigma, size=out.shape)
    return out
