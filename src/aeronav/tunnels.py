"""Synthetic tunnel point clouds.

A tunnel is a tube swept along a smooth (or piecewise-linear) axis curve.
The generator samples the wall surface as a point cloud and keeps the axis
polyline as ground truth so runs can be scored by curvilinear progress.
Frames along the axis are parallel-transported to avoid twist.

The generator is array code: the axis samples, the rotations between
consecutive tangents, every ring of the wall and the self-intersection
check are computed at once.  The one loop left is the transport of the
normal through those rotations, a recurrence (Wang et al. 2008,
"Computation of rotation minimizing frames").  The array code adds and
multiplies in the order of the per-sample reference loops in
tests/test_tunnels.py, and must match them bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import EPS, blas_dots, blas_norms, norm, perpendicular_basis, sq_distances
from .world import in_range


class TunnelGenerationError(Exception):
    pass


# edge of the cubic cells of a tunnel cloud's grid [m]
GRID_CELL = 1.0


def k_nearest(points: np.ndarray, q: np.ndarray, k: int) -> np.ndarray:
    """Rows of the k points nearest to q, ordered by squared distance and
    then by row, as cKDTree.query(q, k) orders them where no two tie."""
    return np.argsort(sq_distances(points, q), kind="stable")[:k]


class CellGrid:
    """Uniform grid of cubes of edge `cell` over a fixed (N, 3) point set
    (Teschner et al. 2003, "Optimized spatial hashing for collision
    detection of deformable objects").  Rows are stored cell by cell, in
    point order within a cell.  A point within some distance of a query
    lies in a cell whose centre is within that distance plus `reach`: the
    half-diagonal, with a slack for rounding and a heading within 1e-6 of
    unit length."""

    def __init__(self, points: np.ndarray, cell: float):
        self.points = points
        keys = np.floor(points / cell).astype(np.int64)
        self.order = np.lexsort(keys.T[::-1])
        keys = np.take(keys, self.order, axis=0)
        first = np.ones(len(keys), dtype=bool)
        first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
        self.starts = np.flatnonzero(first)
        self.counts = np.diff(self.starts, append=len(keys))
        self.keys = np.take(keys, self.starts, axis=0)
        self.centres = (self.keys + 0.5) * cell
        self.reach = 0.5 * np.sqrt(3.0) * cell + 0.01
        self.sorted_points = np.take(points, self.order, axis=0)

    def cell_means(self) -> np.ndarray:
        """Mean point of each cell, in grid order.  Cells holding the same
        number of points are averaged together, one (cells, count, 3)
        `.mean(axis=1)` per distinct count, which sums each cell in the same
        order as a per-cell `.mean(axis=0)`."""
        out = np.empty((len(self.starts), 3))
        for m in np.unique(self.counts):
            group = np.flatnonzero(self.counts == m)
            out[group] = self.sorted_points[self.starts[group, None] + np.arange(m)].mean(axis=1)
        return out

    def rows_at(self, pos: np.ndarray) -> np.ndarray:
        """The points at grid positions `pos`."""
        return np.take(self.sorted_points, pos, axis=0)  # a third of fancy indexing's cost

    def _positions(self, cells: np.ndarray) -> np.ndarray:
        """Positions, in grid order, of the rows of the given cells."""
        counts = self.counts[cells]
        return (np.repeat(self.starts[cells] + counts - np.cumsum(counts), counts)
                + np.arange(counts.sum()))

    def nearest_distance(self, p: np.ndarray) -> float:
        """Distance from p to the nearest point, cKDTree's bit for bit.  The
        points of the cell whose centre is nearest put it at most u, and
        only cells whose centre is within u + reach can hold nearer ones."""
        rel = self.centres - p
        centre_d2 = np.einsum("ij,ij->i", rel, rel)
        first = np.argmin(centre_d2)
        own = self.sorted_points[self.starts[first]:][:self.counts[first]]
        u = np.sqrt(sq_distances(own, p).min())
        cells = np.flatnonzero(centre_d2 <= (u + self.reach) ** 2)
        return float(np.sqrt(sq_distances(self.rows_at(self._positions(cells)), p).min()))

    def pairs_within(self, r: float) -> np.ndarray:
        """Row pairs (i, j), each once, of the points at most r apart, by
        squared distance against r * r as cKDTree.query_pairs(r) compares
        them.  With r below the cell edge by more than rounding (1e-9
        relative, for coordinates within 1e6 edges of the origin) such
        points lie in one cell or in two adjacent ones, so each cell is
        paired with itself and the 13 neighbours after it."""
        keys = self.keys - self.keys.min(axis=0) + 1
        span = keys.max(axis=0) + 2
        code = (keys[:, 0] * span[1] + keys[:, 1]) * span[2] + keys[:, 2]  # ascending
        off = np.indices((3, 3, 3)).reshape(3, -1) - 1
        steps = (off[0] * span[1] + off[1]) * span[2] + off[2]
        steps = steps[steps >= 0]
        want = (code[:, None] + steps).ravel()
        at = np.minimum(np.searchsorted(code, want), len(code) - 1)
        hit = np.flatnonzero(code[at] == want)
        a, b = hit // len(steps), at[hit]
        n = self.counts[a] * self.counts[b]
        pair = np.repeat(np.arange(len(a)), n)
        k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        i = self.starts[a][pair] + k // self.counts[b][pair]
        j = self.starts[b][pair] + k % self.counts[b][pair]
        close = sq_distances(self.rows_at(i), self.rows_at(j)) <= r * r
        keep = close & ((a != b)[pair] | (i < j))
        return np.stack([self.order[i[keep]], self.order[j[keep]]], axis=1)

    def in_range(self, c: np.ndarray, d_range: float) -> np.ndarray:
        """`world.in_range(c, points, d_range)`, in point order, testing only
        the rows of the cells the range sphere cuts: a cell whose centre is
        within d_range - reach of c holds only points in range, one beyond
        d_range + reach none.  On tunnel-g's 25 m range nearly every cell is
        inside, so only the few rows of cut cells take a distance: a
        tunnel-g run takes 61 ms against 74 ms with the whole-cloud test."""
        rel = self.centres - c
        dist2 = np.einsum("ij,ij->i", rel, rel)
        inner = (dist2 <= (d_range - self.reach) ** 2) & (d_range > self.reach)
        cut = ~inner & (dist2 <= (d_range + self.reach) ** 2)
        out = np.zeros(len(self.points), dtype=bool)
        out[np.take(self.order, self._positions(np.flatnonzero(inner)))] = True
        pos = self._positions(np.flatnonzero(cut))
        out[np.take(self.order, pos)] = in_range(c, self.rows_at(pos), d_range)
        return out

    def near_planes(self, c: np.ndarray, f: np.ndarray, offsets, width: float,
                    d_range: float) -> list[np.ndarray]:
        """For each d in offsets, the positions, in grid order, of the rows of
        the cells that can hold a point within `width` of the plane through
        c + d f with normal f and within `d_range` of c."""
        along = self.centres @ f - float(c @ f)
        out = []
        for d in offsets:
            cells = np.flatnonzero(np.abs(along - d) <= width + self.reach)
            rel = self.centres[cells] - c
            cells = cells[np.einsum("ij,ij->i", rel, rel) <= (d_range + self.reach) ** 2]
            out.append(self._positions(cells))
        return out


@dataclass
class TunnelCloud:
    points: np.ndarray                 # (N, 3) wall samples
    axis: np.ndarray                   # (M, 3) axis polyline
    axis_s: np.ndarray                 # (M,) cumulative arclength
    nominal_radius: float
    shape: str = "custom"
    closed: bool = False               # torus-like axis

    def __post_init__(self):
        if len(self.points) == 0:
            raise TunnelGenerationError("tunnel cloud is empty")
        self.grid = CellGrid(self.points, GRID_CELL)

    @property
    def length(self) -> float:
        return float(self.axis_s[-1])

    def wall_distance(self, p: np.ndarray) -> float:
        return self.grid.nearest_distance(np.asarray(p, dtype=float))

    def curvilinear(self, p: np.ndarray) -> float:
        """Arclength coordinate of the axis sample nearest to p, the first
        of equally near ones; in [0, length], unwrapped on closed axes."""
        return float(self.axis_s[np.argmin(sq_distances(self.axis, p))])

    def save_xyz(self, path) -> None:
        np.savetxt(path, self.points, fmt="%.6f")


def _parallel_frames(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tangents plus parallel-transported normals/binormals along a polyline.

    The rotation taking each tangent to the next (about c = t_prev x t_cur,
    by atan2(|c|, t_prev . t_cur)) is computed for all samples at once, its
    norms and dots one BLAS dot per row.  Only the transport of the normal
    through those rotations is sequential: it runs on Python floats in the
    order of the array expression n = cos n + sin (k x n) + (1 - cos) k (k . n),
    n = unit(n - (n . t) t), and only its dots, whose BLAS kernel Python
    cannot reproduce, are taken on arrays."""
    diffs = np.diff(axis, axis=0)
    seglen = np.linalg.norm(diffs, axis=1)
    if np.any(seglen < 1e-12):
        raise TunnelGenerationError("degenerate axis sampling")
    tangents = np.vstack([diffs / seglen[:, None], diffs[-1:] / seglen[-1]])
    t_prev, t_next = tangents[:-1], tangents[1:]
    c = np.cross(t_prev, t_next)
    s = blas_norms(c)
    turns = s > 1e-12
    rot_axes = c / np.where(turns, s, 1.0)[:, None]
    ang = np.arctan2(s, blas_dots(t_prev, t_next))
    x, y, z = perpendicular_basis(tangents[0])[0].tolist()
    normals = [(x, y, z)]
    steps = zip(turns.tolist(), rot_axes, rot_axes.tolist(), np.cos(ang).tolist(),
                np.sin(ang).tolist(), tangents[1:], tangents[1:].tolist())
    for turn, k, (k0, k1, k2), cr, sr, t, (t0, t1, t2) in steps:
        if turn:
            kn = float(k.dot(np.array((x, y, z))))
            x, y, z = (cr * x + sr * (k1 * z - k2 * y) + (1 - cr) * k0 * kn,
                       cr * y + sr * (k2 * x - k0 * z) + (1 - cr) * k1 * kn,
                       cr * z + sr * (k0 * y - k1 * x) + (1 - cr) * k2 * kn)
        nt = float(np.array((x, y, z)).dot(t))
        x, y, z = x - nt * t0, y - nt * t1, z - nt * t2
        m = np.array((x, y, z))
        mm = math.sqrt(m.dot(m))        # unit(m) on floats, norm(m)'s bits
        if mm < EPS:
            raise ValueError("cannot normalize a zero vector")
        x, y, z = x / mm, y / mm, z / mm
        normals.append((x, y, z))
    normals = np.array(normals)
    binormals = np.cross(tangents, normals)
    return tangents, normals, binormals


def _check_axis(axis: np.ndarray, axis_s: np.ndarray, radius: float,
                closed: bool) -> None:
    """Reject self-intersecting axes: samples far apart along the curve must
    not come closer than the tube diameter in space, r = 1.5 radius, where
    far means more than 4 radius of arclength (the shorter way round on a
    closed axis).

    A coarse pass on every k-th sample goes first.  A sample lies within
    delta of arclength, so within delta in space, of the coarse sample
    before it; so a close far pair of samples has coarse samples within r +
    2 delta of each other and more than 4 radius - 2 delta apart along the
    curve.  The exact search over all samples runs only when the coarse
    pass finds such a pair."""
    r, far = 1.5 * radius, 4.0 * radius
    # coarse samples about r / 8 of arclength apart
    length = float(axis_s[-1])
    k = int(min(len(axis_s), r * len(axis_s) / (8.0 * length))) if length > 0.0 else 1
    if k > 1:
        idx = np.arange(0, len(axis), k)
        delta = float(np.max(axis_s - axis_s[np.arange(len(axis_s)) // k * k]))
        slack = 1e-9 * (r + delta + length)      # far above the rounding of s
        if not _far_pairs(axis[idx], axis_s[idx], length, r + 2.0 * delta + slack,
                          far - 2.0 * delta - slack, closed):
            return
    if _far_pairs(axis, axis_s, length, r, far, closed):
        raise TunnelGenerationError("self-intersecting tunnel axis")


def _far_pairs(points, s, length, r, far, closed) -> bool:
    """True if two points at most r apart (cKDTree.query_pairs's test) lie
    more than `far` apart in arclength s."""
    # cells a hair wider than r, so that rounding puts no pair two apart
    pairs = CellGrid(points, r * (1.0 + 1e-9)).pairs_within(r)
    gap = np.abs(s[pairs[:, 0]] - s[pairs[:, 1]])
    if closed:
        gap = np.minimum(gap, length - gap)
    return bool(np.any(gap > far))


def _square_section(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n points walked evenly around the square [-1, 1]^2, counterclockwise
    from (-1, -1), as (u, w) coordinates."""
    tpar = np.linspace(0.0, 4.0, n, endpoint=False)
    side = tpar.astype(np.int64)
    frac = tpar - side
    up, down = -1 + 2 * frac, 1 - 2 * frac
    one = np.ones(n)
    u = np.choose(side, [up, one, down, -one])
    w = np.choose(side, [-one, up, one, down])
    return u, w


def _sweep(axis: np.ndarray, radius: float, *, closed: bool, shape: str,
           density: float, section: str = "circle",
           radius_fn=None) -> TunnelCloud:
    """Sample rings along the axis at `density` points per meter of axis;
    ring i holds axis[i] + (r_i u) n_i + (r_i w) b_i for the section's
    (u, w) table, all rings in one array expression."""
    seg = np.linalg.norm(np.diff(axis, axis=0), axis=1)
    axis_s = np.concatenate([[0.0], np.cumsum(seg)])
    _check_axis(axis, axis_s, radius, closed)
    _, normals, binormals = _parallel_frames(axis)
    ring_pts = max(8, int(np.ceil(density * float(np.mean(seg)))))
    if section == "circle":
        phis = np.linspace(0.0, 2.0 * np.pi, ring_pts, endpoint=False)
        u, w = np.cos(phis), np.sin(phis)
    else:  # square cross-section of half-width r_i
        u, w = _square_section(ring_pts)
    r = np.full(len(axis), float(radius)) if radius_fn is None else radius_fn(axis_s)
    ru = (r[:, None] * u)[:, :, None]
    rw = (r[:, None] * w)[:, :, None]
    pts = (axis[:, None, :] + ru * normals[:, None, :]) + rw * binormals[:, None, :]
    return TunnelCloud(pts.reshape(-1, 3), axis, axis_s, radius, shape, closed)


# waypoints of the polyline shapes, in units of the tunnel length; the
# pipeline bends in all three axes
_POLYLINES = {
    "sharp-bends": [(0, 0, 0), (0.35, 0, 0), (0.35, 0.3, 0), (0.7, 0.3, 0.15),
                    (1, 0.3, 0.15)],
    "s-shape": [(0, 0, 0), (0.3, 0, 0), (0.5, 0.25, 0), (0.7, 0, 0), (1, 0, 0)],
    "rectangular": [(0, 0, 0), (0.4, 0, 0), (0.4, 0.35, 0), (0.9, 0.35, 0)],
    "pipeline": [(0, 0, 0), (0.25, 0, 0), (0.45, 0.18, 0), (0.6, 0.18, 0.18),
                 (0.85, 0.05, 0.18), (1, 0.05, 0.18)],
}


SHAPES = ("straight", "smooth-bend", "torus", "helix", *_POLYLINES, "narrowing")
# axis sampling step, in meters
_DS = 0.1


def generate_tunnel(shape: str, *, radius: float = 2.0, length: float = 40.0,
                    density: float = 400.0, end_radius: float | None = None,
                    helix_radius: float = 8.0, pitch: float = 5.0,
                    turns: float = 1.25) -> TunnelCloud:
    """Build one of the stock tunnel shapes.

    density is points per meter of axis; `shape` is one of SHAPES.  The
    narrowing tube shrinks linearly from radius to end_radius (default
    0.65 radius); the helix takes helix_radius, pitch and turns.
    """
    if radius <= 0.0 or length <= 0.0 or density <= 0.0:
        raise TunnelGenerationError("tunnel parameters must be positive")

    if shape == "straight":
        n = int(np.ceil(length / _DS)) + 1
        axis = np.stack([np.linspace(0.0, length, n),
                         np.zeros(n), np.zeros(n)], axis=1)
        closed = False
    elif shape == "smooth-bend":
        # straight run, 90 degree arc, straight run
        run = length * 0.3
        arc_r = length * 0.25
        s_tot = 2 * run + 0.5 * np.pi * arc_r
        n = int(np.ceil(s_tot / _DS)) + 1
        s = np.linspace(0.0, s_tot, n)
        after = s >= run + 0.5 * np.pi * arc_r
        arc = (s >= run) & ~after
        th = (s - run) / arc_r
        s2 = s - run - 0.5 * np.pi * arc_r
        axis = np.stack([np.select([arc, after], [run + arc_r * np.sin(th), run + arc_r], s),
                         np.select([arc, after], [arc_r * (1 - np.cos(th)), arc_r + s2], 0.0),
                         np.zeros(n)], axis=1)
        closed = False
    elif shape == "torus":
        ring_r = length / (2.0 * np.pi)
        n = int(np.ceil(2.0 * np.pi * ring_r / _DS))
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        axis = np.stack([ring_r * np.cos(th), ring_r * np.sin(th),
                         np.zeros(n)], axis=1)
        closed = True
    elif shape == "helix":
        th_max = 2.0 * np.pi * turns
        circ = np.hypot(helix_radius, pitch / (2 * np.pi))
        n = int(np.ceil(th_max * circ / _DS)) + 1
        th = np.linspace(0.0, th_max, n)
        axis = np.stack([helix_radius * np.cos(th), helix_radius * np.sin(th),
                         pitch * th / (2.0 * np.pi)], axis=1)
        closed = False
    elif shape in _POLYLINES:
        wps = np.asarray(_POLYLINES[shape]) * length
        # each leg runs from the last sample of the previous one
        pieces = [wps[:1]]
        for wp in wps[1:]:
            base = pieces[-1][-1]
            seg = wp - base
            n = max(1, int(np.ceil(norm(seg) / _DS)))
            pieces.append(base + seg * (np.arange(1, n + 1) / n)[:, None])
        axis = np.concatenate(pieces)
        # round corners slightly so frames stay well-conditioned
        for _ in range(12 if shape != "rectangular" else 8):
            axis[1:-1] = 0.5 * axis[1:-1] + 0.25 * (axis[:-2] + axis[2:])
        closed = False
    elif shape == "narrowing":
        n = int(np.ceil(length / _DS)) + 1
        axis = np.stack([np.linspace(0.0, length, n),
                         np.zeros(n), np.zeros(n)], axis=1)
        r1 = 0.65 * radius if end_radius is None else end_radius
        return _sweep(axis, radius, closed=False, shape=shape, density=density,
                      radius_fn=lambda s: radius + (r1 - radius) * s / length)
    else:
        raise TunnelGenerationError(f"unknown tunnel shape {shape!r}")

    section = "square" if shape == "rectangular" else "circle"
    return _sweep(axis, radius, closed=closed, shape=shape, density=density,
                  section=section)
