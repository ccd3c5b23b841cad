"""Barrier and sweep coverage over a planar region in 3D.

Agents project onto the (possibly moving) plane, compute their Voronoi
cells there by half-plane clipping against in-range neighbors, and steer
toward the cell centroids; the centroidal configuration maximizes the
multicenter sensing objective.  A sweeping plane drags the whole formation
across the volume; deformation events reshape it in flight.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

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

    def to_world(self, local: np.ndarray) -> np.ndarray:
        """World point(s) of in-frame coordinates, (..., 3) or in-plane (..., 2)."""
        local = np.asarray(local, dtype=float)
        return self.origin + matmul_lr(local, self.rotation()[:, :local.shape[-1]].T)

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


def clip_halfplane(poly: np.ndarray, a, b: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon (k, 2) with {q: a.q <= b};
    poly itself when every vertex is inside.  Computed on Python floats:
    each vertex is decided by x * a0 + y * a1 - b."""
    pts = poly.tolist()
    ax, ay, b = float(a[0]), float(a[1]), float(b)
    s = [x * ax + y * ay - b for x, y in pts]
    inside = [v <= 1e-12 for v in s]
    if all(inside):          # False for a NaN, which takes the clip below
        return poly
    # keep each inside vertex k, and the crossing point of edge k -> k + 1
    out = []
    n = len(pts)
    for k in range(n):
        k1 = k + 1 if k + 1 < n else 0
        if inside[k]:
            out.append(pts[k])
            if inside[k1]:
                continue
        elif not inside[k1]:
            continue            # both ends outside: no crossing
        s0, s1 = s[k], s[k1]
        if abs(s0 - s1) > 1e-15:
            t = min(max(s0 / (s0 - s1), 0.0), 1.0)
            (x0, y0), (x1, y1) = pts[k], pts[k1]
            out.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    return np.array(out) if out else np.empty((0, 2))


def polygon_moments(polys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact shoelace integrals over each polygon (ordered vertices, at least
    three each): area (k,), first moment, the integral of q, (k, 2), and
    second moment, the integral of |q|^2, (k,).  Areas are signed by the
    vertex order."""
    counts = np.array([len(p) for p in polys])
    ends = np.cumsum(counts)
    starts = ends - counts
    pts = np.concatenate(polys)
    nxt = np.arange(1, len(pts) + 1)
    nxt[ends - 1] = starts
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = x[nxt], y[nxt]
    cross = x * yn - xn * y
    sums = np.add.reduceat(np.stack((
        cross, cross * (x + xn), cross * (y + yn),
        cross * (x * x + x * xn + xn * xn + y * y + y * yn + yn * yn))), starts, axis=1)
    return 0.5 * sums[0], sums[1:3].T / 6.0, sums[3] / 12.0


def _moment_about(area, first, second, about):
    """Integral of |q - about|^2 from the moments about the origin."""
    return (second - 2.0 * np.sum(first * about, axis=-1)
            + np.sum(about * about, axis=-1) * area)


def polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    return float(polygon_moments([poly])[0][0])


def _half_sq(p: np.ndarray) -> np.ndarray:
    """|p|^2 / 2 of each row of p (n, 2), in element-wise arithmetic."""
    return 0.5 * (p[:, 0] * p[:, 0] + p[:, 1] * p[:, 1])


def _reach(vertices: list, gx: float, gy: float) -> float:
    """4 max_v |v - g|^2 over a vertex list, on floats, rounded as the array
    form 4.0 * ((poly - g) ** 2).sum(axis=1).max()."""
    return 4.0 * max([(x - gx) * (x - gx) + (y - gy) * (y - gy) for x, y in vertices])


def voronoi_cells(generators: np.ndarray, boundary: np.ndarray,
                  neighbor_mask: np.ndarray | None = None) -> list[np.ndarray]:
    """Voronoi cell polygons inside the boundary polygon (2D), clipping each
    generator's cell with the perpendicular bisectors against the other
    generators (optionally only the in-range ones, neighbor_mask[i, j]).

    The others are taken nearest first, and a cell is complete at the first
    generator j with d_ij^2 > 4 max_v |v - g_i|^2 over its vertices v: no
    bisector that far from g_i can cut it (triangle inequality), so the cell
    equals the all-pairs clip."""
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
    half_sq = _half_sq(g)
    # the rows of each generator i, as Python floats: squared distances,
    # bisector offsets, bisector normals, and the candidates nearest first
    sq, off = (d * d).tolist(), (half_sq[None, :] - half_sq[:, None]).tolist()
    normals = diff.tolist()
    orders = order.tolist()
    keep = np.take_along_axis(candidates, order, axis=1).tolist()
    boundary = np.array(boundary, dtype=float)
    corners = boundary.tolist()
    cells = []
    for i, (gx, gy) in enumerate(g.tolist()):
        sq_i, off_i, normals_i = sq[i], off[i], normals[i]
        poly = boundary
        reach = _reach(corners, gx, gy)
        for j in compress(orders[i], keep[i]):
            if sq_i[j] > reach:
                break
            clipped = clip_halfplane(poly, normals_i[j], off_i[j])
            if clipped is poly:
                continue
            poly = clipped
            if len(poly) == 0:
                break
            reach = _reach(poly.tolist(), gx, gy)
        cells.append(poly)
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
    as (n, 3) rows."""
    e = np.asarray(centroid_world, dtype=float) - np.asarray(p, dtype=float)
    tanh_e = np.array([math.tanh(v) for v in e.ravel().tolist()]).reshape(e.shape)
    return matmul_lr(tanh_e, gains.k.T)


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
        full = np.array([len(cell) >= 3 for cell in cells], dtype=bool)
        events.extend(("empty_cell", {"agent": int(i)}) for i in idx[~full])
        cost = 0.0
        if full.any():
            area, first, second = polygon_moments([c for c, ok in zip(cells, full) if ok])
            if np.any(np.abs(area) < EPS_AREA):
                raise ValueError("degenerate cell: zero area")
            cents[idx[full]] = frame.to_world(first / area[:, None])
            cost = float(np.sum(_moment_about(area, first, second, proj[full])))
        return cls(cells, cents, cost, events)
