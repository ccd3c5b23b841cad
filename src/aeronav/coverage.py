"""Barrier and sweep coverage over a planar region in 3D.

Agents project onto the (possibly moving) plane, compute their Voronoi
cells there by half-plane clipping against in-range neighbors, and steer
toward the cell centroids; the centroidal configuration maximizes the
multicenter sensing objective.  A sweeping plane drags the whole formation
across the volume; deformation events reshape it in flight.

Each cell is one clip of the boundary by its bisectors, nearest first, on
Python floats.  Its moments, centroid and cost are summed on floats in the
order numpy's reduceat, matmul_lr and sum add them, so no BLAS product or
SIMD `tanh` enters the coverage path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import cross3, dot3, matmul_lr, min_pair_distance, norm3, pairwise, skew
from .plants import _check_finite

EPS_AREA = 1e-12


class FrameError(Exception):
    pass


@dataclass
class BarrierFrame:
    """Orthonormal frame attached to the planar region: origin at the first
    boundary vertex, a1 along the first edge, a3 the plane normal."""
    origin: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    boundary_world: np.ndarray     # (l, 3) vertex loop
    boundary_local: np.ndarray     # (l, 2) in-frame coordinates

    @classmethod
    def from_vertices(cls, vertices: np.ndarray) -> "BarrierFrame":
        e = np.asarray(vertices, dtype=float)
        if len(e) < 3:
            raise FrameError("need at least three boundary vertices")
        a1 = e[1] - e[0]
        n1 = norm3(a1)
        if n1 < 1e-12:
            raise FrameError("degenerate first edge")
        a1 = a1 / n1
        b = e[-1] - e[0]
        nb = norm3(b)
        if nb < 1e-12:
            raise FrameError("degenerate closing edge")
        b = b / nb
        a2 = b - dot3(a1, b) * a1
        n2 = norm3(a2)
        if n2 < 1e-9:
            raise FrameError("collinear boundary vertices: frame undefined")
        a2 = a2 / n2
        a3 = cross3(a1, a2)
        local3 = matmul_lr(e - e[0], np.column_stack((a1, a2, a3)))
        if np.max(np.abs(local3[:, 2])) > 1e-8:
            raise FrameError("boundary vertices are not coplanar")
        return cls(e[0].copy(), a1, a2, a3, e.copy(), local3[:, :2])

    def rotation(self) -> np.ndarray:
        return np.column_stack((self.a1, self.a2, self.a3))

    def to_local(self, p: np.ndarray) -> np.ndarray:
        """In-frame coordinates of a point (3,) or of points (n, 3)."""
        return matmul_lr(np.asarray(p, dtype=float) - self.origin, self.rotation())

    def project(self, p: np.ndarray) -> np.ndarray:
        """In-frame 2D coordinates of the projection of p onto the plane."""
        return self.to_local(p)[..., :2]

    def translated(self, offset: np.ndarray) -> "BarrierFrame":
        return BarrierFrame(self.origin + offset, self.a1, self.a2, self.a3,
                            self.boundary_world + offset[None, :],
                            self.boundary_local.copy())

    def reshaped(self, scale: float = 1.0, tilt_axis: np.ndarray | None = None,
                 tilt_angle: float = 0.0) -> "BarrierFrame":
        """Scale about the boundary centroid and/or tilt about an axis
        through it; the polygon stays planar.  The tilt is Rodrigues'
        rotation in element-wise arithmetic: the same bits on every host."""
        centroid = self.boundary_world.mean(axis=0)
        verts = centroid + scale * (self.boundary_world - centroid)
        if tilt_axis is not None and tilt_angle != 0.0:
            n = np.asarray(tilt_axis, dtype=float)
            n = n / norm3(n)
            c, s = np.cos(tilt_angle), np.sin(tilt_angle)
            rot = c * np.eye(3) + s * skew(n) + (1.0 - c) * np.outer(n, n)
            verts = centroid + matmul_lr(verts - centroid, rot.T)
        return BarrierFrame.from_vertices(verts)


def clip_halfplane(poly: np.ndarray, planes, g) -> np.ndarray:
    """Sutherland-Hodgman clip of the convex polygon poly (k, 2) by the
    half-planes {q: a0 x + a1 y <= b} of the rows (a0, a1, b) of planes, in
    order: the clipped polygon, or poly itself when no half-plane cuts it.

    g is a point inside every half-plane and the rows come nearest line
    first.  Clipping stops at the first line farther from g than every
    vertex: neither it nor any line after it can cut.  Computed on Python
    floats: each vertex is decided by x * a0 + y * a1 - b."""
    gx, gy = g
    pts = poly.tolist()
    # max_v |v - g|^2, NaN when a vertex is NaN (max alone skips a NaN after
    # the first), so that no stop is taken before the NaN is clipped away
    sq = [(x - gx) * (x - gx) + (y - gy) * (y - gy) for x, y in pts]
    reach = math.nan if math.isnan(sum(sq)) else max(sq)
    cut = False
    for ax, ay, b in planes:
        m = b - (ax * gx + ay * gy)     # |a| times the line's distance from g
        if m > 0.0 and m * m > (ax * ax + ay * ay) * reach:
            break
        for x, y in pts:
            if not x * ax + y * ay - b <= 1e-12:   # outside, or NaN
                break
        else:
            continue
        # keep each inside vertex k, and the crossing point of each edge
        # k -> k + 1 that leaves or enters; a NaN vertex has neither.  The
        # loop meets edge k - 1 -> k before vertex k, so the closing edge's
        # crossing comes first and is moved to the end.
        s = [x * ax + y * ay - b for x, y in pts]
        out, wrap = [], False
        p0, s0 = pts[-1], s[-1]
        for p1, s1 in zip(pts, s):
            in1 = s1 <= 1e-12
            if (s0 <= 1e-12) != in1 and abs(s0 - s1) > 1e-15:
                t = s0 / (s0 - s1)      # clamped to [0, 1], NaN kept
                if t < 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                (x0, y0), (x1, y1) = p0, p1
                out.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
                wrap = wrap or p1 is pts[0]
            if in1:
                out.append(p1)
            p0, s0 = p1, s1
        if wrap:
            out.append(out.pop(0))
        pts, cut = out, True
        if not pts:
            break
        reach = 0.0             # a clip keeps no NaN vertex: a plain max
        for x, y in pts:
            d = (x - gx) * (x - gx) + (y - gy) * (y - gy)
            if d > reach:
                reach = d
    if not cut:
        return poly
    return np.array(pts) if pts else np.empty((0, 2))


def _pairwise_sum(v: list) -> float:
    """The sum of the floats v in the order numpy's pairwise summation adds
    them: left to right from -0.0 below 8 terms, eight interleaved
    accumulators up to 128, halves (a multiple of 8 first) above.
    np.add.reduceat adds a segment as its first term plus this sum of the
    rest, and np.sum a 1-D array as 0.0 plus this sum of it."""
    n = len(v)
    if n < 8:
        s = -0.0
        for x in v:
            s += x
        return s
    if n <= 128:
        r = list(v[:8])
        tail = n - n % 8
        for i in range(8, tail, 8):
            for k in range(8):
                r[k] += v[i + k]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in v[tail:]:
            s += x
        return s
    half = n // 2
    half -= half % 8
    return _pairwise_sum(v[:half]) + _pairwise_sum(v[half:])


def cell_moments(vertices: list) -> tuple[float, float, float, float]:
    """Exact shoelace integrals over one polygon given as at least three
    (x, y) float pairs in order: area, first moment (the integral of q,
    x then y) and second moment (the integral of |q|^2).  The area is
    signed by the vertex order.  Each integral is the first vertex's term
    plus the pairwise sum of the others', the bits np.add.reduceat gives
    over the same terms."""
    terms = [(c, c * (x + xn), c * (y + yn),
              c * (x * x + x * xn + xn * xn + y * y + y * yn + yn * yn))
             for (x, y), (xn, yn) in zip(vertices, vertices[1:] + vertices[:1])
             for c in (x * yn - xn * y,)]
    (c0, c1, c2, c3), rest = terms[0], terms[1:]
    if len(rest) < 8:           # _pairwise_sum's order, four sums at once
        area = mx = my = second = -0.0
        for t0, t1, t2, t3 in rest:
            area += t0
            mx += t1
            my += t2
            second += t3
    else:
        area, mx, my, second = (_pairwise_sum(t) for t in zip(*rest))
    return 0.5 * (c0 + area), (c1 + mx) / 6.0, (c2 + my) / 6.0, (c3 + second) / 12.0


def _moment_about(area: float, mx: float, my: float, second: float,
                  px: float, py: float) -> float:
    """Integral of |q - p|^2 from the moments about the origin, each dot
    product summed as np.sum sums a row of two."""
    return (second - 2.0 * (0.0 + (mx * px + my * py))
            + (0.0 + (px * px + py * py)) * area)


def polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    return cell_moments(poly.tolist())[0]


def _half_sq(p: np.ndarray) -> np.ndarray:
    """|p|^2 / 2 of each row of p (n, 2), in element-wise arithmetic."""
    return 0.5 * (p[:, 0] * p[:, 0] + p[:, 1] * p[:, 1])


def voronoi_cells(generators: np.ndarray, boundary: np.ndarray,
                  neighbor_mask: np.ndarray | None = None) -> list[np.ndarray]:
    """Voronoi cell polygons inside the boundary polygon (2D), clipping each
    generator's cell with the perpendicular bisectors against the other
    generators (optionally only the in-range ones, neighbor_mask[i, j]).

    Each cell is one `clip_halfplane` of the boundary by its bisectors,
    nearest generator first: the bisector with g_j lies d_ij / 2 from g_i,
    so the clip's stop ends the cell at the first one farther than every
    vertex, and the cell equals the all-pairs clip."""
    g = np.asarray(generators, dtype=float)
    n = len(g)
    if n == 0:
        return []
    diff, d = pairwise(g)
    if np.any(d + np.eye(n) < 1e-9):
        raise ValueError("duplicate projected generators: cells undefined")
    candidates = ~np.eye(n, dtype=bool)
    if neighbor_mask is not None:
        candidates &= neighbor_mask
    order = np.argsort(d, axis=1, kind="stable")
    keep = np.take_along_axis(candidates, order, axis=1)
    # the bisector rows (a0, a1, b) = (g_j - g_i, |g_j|^2 / 2 - |g_i|^2 / 2)
    # of each generator i, its candidates j nearest first, as float columns
    pair = (order + n * np.arange(n)[:, None])[keep]
    half_sq = _half_sq(g)
    a0, a1, off = (col.ravel()[pair].tolist() for col in
                   (diff[..., 0], diff[..., 1], half_sq[None, :] - half_sq[:, None]))
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    boundary = np.array(boundary, dtype=float)
    cells, start = [], 0
    for gi, end in zip(g.tolist(), ends):
        rows = zip(a0[start:end], a1[start:end], off[start:end])
        cells.append(clip_halfplane(boundary, rows, gi))
        start = end
    return cells


@dataclass(frozen=True)
class CoverageGains:
    k: np.ndarray = field(default_factory=lambda: np.diag([2.5, 0.5, 0.5]))  # diagonal

    def __post_init__(self):
        if np.any(np.diag(self.k) <= 0.0):
            raise ValueError("coverage gains must be positive")

    @property
    def u_max(self) -> float:
        return float(np.sqrt(np.sum(np.diag(self.k) ** 2)))


def coverage_control(p: np.ndarray, centroid_world: np.ndarray,
                     gains: CoverageGains) -> np.ndarray:
    """Lloyd-style velocity command toward the instantaneous Voronoi centroid,
    the saturating K tanh(C - p).  One agent's (3,) vectors, or all agents'
    as (n, 3) rows.  Computed on Python floats with math.tanh, each
    component summed left to right as `geom.matmul_lr` sums it."""
    e = np.asarray(centroid_world, dtype=float) - np.asarray(p, dtype=float)
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = gains.k.tolist()
    out = []
    for ex, ey, ez in e.reshape(-1, 3).tolist():
        tx, ty, tz = math.tanh(ex), math.tanh(ey), math.tanh(ez)
        out.append((tx * k00 + ty * k01 + tz * k02, tx * k10 + ty * k11 + tz * k12,
                    tx * k20 + ty * k21 + tz * k22))
    return np.array(out).reshape(e.shape)


@dataclass
class SweepEvent:
    t: float
    kind: str                       # "resize" | "tilt"
    scale: float = 1.0
    tilt_axis: np.ndarray | None = None
    tilt_angle: float = 0.0


class SweepPlan:
    """Time-indexed pose of the sweeping plane.

    Motion: constant speed g0 along the instantaneous normal a3.  Deform
    events apply at their times; a resize shrinking the polygon below
    n_agents * min_area_per_agent is rejected."""

    def __init__(self, frame: BarrierFrame, g0: float = 1.5,
                 events: list[SweepEvent] | None = None,
                 min_area_per_agent: float = 1.0, n_agents: int = 1,
                 u_max: float | None = None):
        if u_max is not None and g0 > u_max:
            raise ValueError("sweep speed must respect the vehicles' limit")
        self.frame = frame
        self.g0 = g0
        self.events = sorted(events or [], key=lambda e: e.t)
        self.min_area = min_area_per_agent * n_agents
        self.rejected: list[SweepEvent] = []
        self.t = 0.0

    def step(self, dt: float) -> BarrierFrame:
        self.frame = self.frame.translated(self.g0 * self.frame.a3 * dt)
        self.t += dt
        while self.events and self.events[0].t <= self.t:
            ev = self.events.pop(0)
            cand = self.frame.reshaped(ev.scale, ev.tilt_axis, ev.tilt_angle)
            if abs(polygon_area(cand.boundary_local)) < self.min_area:
                self.rejected.append(ev)
            else:
                self.frame = cand
        return self.frame


class CoverageSim:
    """Single-integrator agents steered to their in-plane Voronoi centroids.

    Two-phase tick: project all positions into the (current) frame, clip the
    cells from the snapshot, then apply velocity commands for one control
    period (the integrator is exact for a zero-order-hold input).  The cells
    and centroids of a state (positions, active set, frame) are computed once
    and shared by every query on that state; queries record nothing, and
    tick() records the state's events."""

    def __init__(self, q0: np.ndarray, frame: BarrierFrame,
                 gains: CoverageGains,
                 sweep: SweepPlan | None = None, control_dt: float = 0.1,
                 r_c: float | None = None):
        self.q = np.asarray(q0, dtype=float).copy()
        self.frame = frame
        self.gains = gains
        self.sweep = sweep
        self.control_dt = control_dt
        self.r_c = r_c
        self.t = 0.0
        self.active = np.ones(len(self.q), dtype=bool)
        self.events: list = []      # (tick index, kind, data)
        self.ticks = 0
        self._state = None          # (q, active, frame, _Partition)

    def remove_agent(self, idx: int):
        self.active[idx] = False

    def _partition(self) -> "_Partition":
        s = self._state
        if (s is not None and s[2] is self.frame and np.array_equal(s[0], self.q)
                and np.array_equal(s[1], self.active)):
            return s[3]
        part = _Partition.of(self.q, self.active, self.frame, self.r_c)
        self._state = (self.q.copy(), self.active.copy(), self.frame, part)
        return part

    def centroids(self) -> tuple[np.ndarray, list]:
        """World centroids (n, 3; NaN for removed agents, the agent's own
        position for an empty cell) and the active agents' cells."""
        part = self._partition()
        return part.centroids, part.cells

    def multicenter_cost(self) -> float:
        """Sum over agents of the second moment of their cell about their
        projected position (exact polygon integration)."""
        return self._partition().cost

    def velocities(self) -> np.ndarray:
        """Commanded velocities at the current state (ZOH input)."""
        out = np.zeros_like(self.q)
        idx = np.nonzero(self.active)[0]
        out[idx] = coverage_control(self.q[idx], self.centroids()[0][idx], self.gains)
        return out

    def tick(self):
        _check_finite([self.q])
        self.events.extend((self.ticks, kind, data)
                           for kind, data in self._partition().events)
        self.q = self.q + self.velocities() * self.control_dt
        if self.sweep is not None:
            self.frame = self.sweep.step(self.control_dt)
        self.t += self.control_dt
        self.ticks += 1

    def min_pairwise(self) -> float:
        return min_pair_distance(pairwise(self.q[self.active])[1])


@dataclass
class _Partition:
    """Voronoi partition of one coverage state: the active agents' cells
    (rows in agent order), all agents' world centroids, the multicenter
    cost, and the (kind, data) events the partition raised."""
    cells: list
    centroids: np.ndarray
    cost: float
    events: list

    @classmethod
    def of(cls, q: np.ndarray, active: np.ndarray, frame: BarrierFrame,
           r_c: float | None) -> "_Partition":
        idx = np.nonzero(active)[0]
        proj = frame.project(q[idx])
        mask = None if r_c is None else pairwise(q[idx])[1] <= r_c
        cells = voronoi_cells(proj, frame.boundary_local, mask)
        events = []
        if mask is not None:
            # out-of-range pairs whose bisector would still cut a cell break
            # the distributed assumption: log, keep the in-range result
            half_sq = _half_sq(proj)
            for row, cell in enumerate(cells):
                far = np.nonzero(~mask[row])[0]
                if len(cell) < 3 or len(far) == 0:
                    continue
                cut = np.any(matmul_lr(cell, (proj[far] - proj[row]).T)
                             > half_sq[far] - half_sq[row] + 1e-9, axis=0)
                events.extend(("comm_range_violation",
                               {"agent": int(idx[row]), "neighbor": int(idx[j])})
                              for j in far[cut])
        # an empty cell holds its agent in place
        cents = np.full(q.shape, np.nan)
        cents[idx] = q[idx]
        (o0, o1, o2), (u0, u1, u2), (v0, v1, v2) = (
            frame.origin.tolist(), frame.a1.tolist(), frame.a2.tolist())
        full, empty, world, costs = [], [], [], []
        for row, (cell, (px, py)) in enumerate(zip(cells, proj.tolist())):
            if len(cell) < 3:
                empty.append(("empty_cell", {"agent": int(idx[row])}))
                continue
            area, mx, my, second = cell_moments(cell.tolist())
            if abs(area) < EPS_AREA:
                raise ValueError("degenerate cell: zero area")
            # the in-frame centroid to world: origin + matmul_lr(c, [a1; a2])
            cx, cy = mx / area, my / area
            world.append((o0 + (cx * u0 + cy * v0), o1 + (cx * u1 + cy * v1),
                          o2 + (cx * u2 + cy * v2)))
            costs.append(_moment_about(area, mx, my, second, px, py))
            full.append(row)
        events.extend(empty)
        if full:
            cents[idx[full]] = world
        # summed as np.sum sums the 1-D array of the cells' costs
        return cls(cells, cents, 0.0 + _pairwise_sum(costs), events)
