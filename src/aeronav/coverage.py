"""Barrier and sweep coverage over a planar region in 3D.

Agents project onto the (possibly moving) plane, compute their Voronoi
cells there by half-plane clipping against in-range neighbors, and steer
toward the cell centroids; the centroidal configuration maximizes the
multicenter sensing objective.  A sweeping plane drags the whole formation
across the volume; deformation events reshape it in flight.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import min_pair_distance, pairwise, unit
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
        n1 = np.linalg.norm(a1)
        if n1 < 1e-12:
            raise FrameError("degenerate first edge")
        a1 = a1 / n1
        b = e[-1] - e[0]
        nb = np.linalg.norm(b)
        if nb < 1e-12:
            raise FrameError("degenerate closing edge")
        b = b / nb
        a2 = b - float(np.dot(a1, b)) * a1
        n2 = np.linalg.norm(a2)
        if n2 < 1e-9:
            raise FrameError("collinear boundary vertices: frame undefined")
        a2 = a2 / n2
        a3 = np.cross(a1, a2)
        local3 = (e - e[0]) @ np.column_stack((a1, a2, a3))
        if np.max(np.abs(local3[:, 2])) > 1e-8:
            raise FrameError("boundary vertices are not coplanar")
        return cls(e[0].copy(), a1, a2, a3, e.copy(), local3[:, :2])

    def rotation(self) -> np.ndarray:
        return np.column_stack((self.a1, self.a2, self.a3))

    def transform_matrix(self) -> np.ndarray:
        """4x4 affine frame->world matrix [a1 a2 a3 origin; 0 0 0 1]."""
        t = np.eye(4)
        t[:3, :3] = self.rotation()
        t[:3, 3] = self.origin
        return t

    def to_local(self, p: np.ndarray) -> np.ndarray:
        """In-frame coordinates of a point (3,) or of points (n, 3)."""
        return (np.asarray(p, dtype=float) - self.origin) @ self.rotation()

    def to_world(self, local: np.ndarray) -> np.ndarray:
        """World point(s) of in-frame coordinates, (..., 3) or in-plane (..., 2)."""
        local = np.asarray(local, dtype=float)
        return self.origin + local @ self.rotation()[:, :local.shape[-1]].T

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
        through it; the polygon stays planar."""
        centroid = self.boundary_world.mean(axis=0)
        verts = centroid + scale * (self.boundary_world - centroid)
        if tilt_axis is not None and tilt_angle != 0.0:
            from .geom import rodrigues_matrix
            rot = rodrigues_matrix(unit(np.asarray(tilt_axis, dtype=float)), tilt_angle)
            verts = centroid + (verts - centroid) @ rot.T
        return BarrierFrame.from_vertices(verts)


def clip_halfplane(poly: np.ndarray, a: np.ndarray, b: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon with {q: a.q <= b}; poly
    itself when every vertex is inside."""
    if len(poly) == 0:
        return poly
    s = poly @ a - b
    inside = s <= 1e-12
    if inside.all():
        return poly
    # keep each inside vertex k, and the crossing point of edge k -> k+1
    out = []
    s, inside, pts = s.tolist(), inside.tolist(), poly.tolist()
    for k in range(-len(pts), 0):
        if inside[k]:
            out.append(pts[k])
        if inside[k] != inside[k + 1] and abs(s[k] - s[k + 1]) > 1e-15:
            t = min(max(s[k] / (s[k] - s[k + 1]), 0.0), 1.0)
            (x0, y0), (x1, y1) = pts[k], pts[k + 1]
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


def cell_centroid(poly: np.ndarray) -> tuple[float, np.ndarray]:
    """Shoelace mass and centroid of a convex polygon with unit density.
    Vertices must be ordered; a zero-area cell is degenerate."""
    if len(poly) < 3:
        raise ValueError("degenerate cell: fewer than three vertices")
    area, first, _ = polygon_moments([poly])
    if abs(area[0]) < EPS_AREA:
        raise ValueError("degenerate cell: zero area")
    return float(area[0]), first[0] / area[0]


def polygon_second_moment(poly: np.ndarray, about: np.ndarray) -> float:
    """Integral of |q - about|^2 over the polygon (exact shoelace form)."""
    area, first, second = polygon_moments([poly])
    return float(_moment_about(area[0], first[0], second[0],
                               np.asarray(about, dtype=float)))


def circumcenter(p1: np.ndarray, p2: np.ndarray, p3: np.ndarray) -> np.ndarray:
    """Circumcenter of a triangle from the edge-vector weights
    w1 = -|a32|^2 (a21 . a13) etc., normalized by their sum."""
    p1, p2, p3 = (np.asarray(p, dtype=float) for p in (p1, p2, p3))
    a32 = p3 - p2
    a21 = p2 - p1
    a13 = p1 - p3
    w1 = -float(a32 @ a32) * float(a21 @ a13)
    w2 = -float(a13 @ a13) * float(a32 @ a21)
    w3 = -float(a21 @ a21) * float(a13 @ a32)
    s = w1 + w2 + w3
    if abs(s) < 1e-15:
        raise ValueError("collinear points have no circumcenter")
    return (w1 * p1 + w2 * p2 + w3 * p3) / s


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
    _, d = pairwise(g)
    if np.any(d + np.eye(n) < 1e-9):
        raise ValueError("duplicate projected generators: cells undefined")
    candidates = ~np.eye(n, dtype=bool)
    if neighbor_mask is not None:
        candidates &= neighbor_mask
    order = np.argsort(d, axis=1, kind="stable")
    half_sq = 0.5 * np.einsum("ij,ij->i", g, g)
    boundary = np.array(boundary, dtype=float)
    cells = []
    for i in range(n):
        poly = boundary
        reach = 4.0 * ((poly - g[i]) ** 2).sum(axis=1).max()
        for j in order[i][candidates[i, order[i]]]:
            if d[i, j] ** 2 > reach:
                break
            clipped = clip_halfplane(poly, g[j] - g[i], half_sq[j] - half_sq[i])
            if clipped is poly:
                continue
            poly = clipped
            if len(poly) == 0:
                break
            reach = 4.0 * ((poly - g[i]) ** 2).sum(axis=1).max()
        cells.append(poly)
    return cells


@dataclass(frozen=True)
class CoverageGains:
    k_bar: np.ndarray = None        # unbounded law gain (diag)
    k: np.ndarray = None            # bounded law gain (diag)
    gamma: float = 1.0

    def __post_init__(self):
        if self.k_bar is None:
            object.__setattr__(self, "k_bar", 0.3 * np.eye(3))
        if self.k is None:
            object.__setattr__(self, "k", np.diag([2.5, 0.5, 0.5]))
        for m in (self.k_bar, self.k):
            if np.any(np.diag(m) <= 0.0):
                raise ValueError("coverage gains must be positive")

    @property
    def u_max(self) -> float:
        return float(np.sqrt(np.sum(np.diag(self.k) ** 2)))


def coverage_control(p: np.ndarray, centroid_world: np.ndarray,
                     gains: CoverageGains, bounded: bool = True) -> np.ndarray:
    """Lloyd-style velocity command toward the instantaneous Voronoi centroid:
    unbounded K_bar (C - p), or the saturating K tanh(gamma (C - p)).  One
    agent's (3,) vectors, or all agents' as (n, 3) rows."""
    e = np.asarray(centroid_world, dtype=float) - np.asarray(p, dtype=float)
    if bounded:
        return np.tanh(gains.gamma * e) @ gains.k.T
    return e @ gains.k_bar.T


@dataclass
class SweepEvent:
    t: float
    kind: str                       # "resize" | "tilt"
    scale: float = 1.0
    tilt_axis: np.ndarray | None = None
    tilt_angle: float = 0.0


class SweepPlan:
    """Time-indexed pose of the sweeping plane.

    Motion: constant speed g0 along the instantaneous normal a3 (or a
    waypoint leg schedule).  Deform events apply at their times; a resize
    shrinking the polygon below n_agents * min_spacing^2 is rejected."""

    def __init__(self, frame: BarrierFrame, g0: float = 1.5,
                 legs: list | None = None,
                 events: list[SweepEvent] | None = None,
                 min_area_per_agent: float = 1.0, n_agents: int = 1,
                 u_max: float | None = None):
        if u_max is not None and g0 > u_max:
            raise ValueError("sweep speed must respect the vehicles' limit")
        self.frame = frame
        self.g0 = g0
        self.legs = legs or []          # [(direction (3,), duration)]
        self.events = sorted(events or [], key=lambda e: e.t)
        self.min_area = min_area_per_agent * n_agents
        self.rejected: list[SweepEvent] = []
        self._leg_idx = 0
        self._leg_elapsed = 0.0
        self.t = 0.0

    def velocity(self) -> np.ndarray:
        if self.legs:
            if self._leg_idx >= len(self.legs):
                return np.zeros(3)
            direction, _ = self.legs[self._leg_idx]
            return self.g0 * unit(np.asarray(direction, dtype=float))
        return self.g0 * self.frame.a3

    def step(self, dt: float) -> BarrierFrame:
        vel = self.velocity()
        self.frame = self.frame.translated(vel * dt)
        if self.legs and self._leg_idx < len(self.legs):
            self._leg_elapsed += dt
            if self._leg_elapsed >= self.legs[self._leg_idx][1] - 1e-12:
                self._leg_idx += 1
                self._leg_elapsed = 0.0
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
                 gains: CoverageGains, bounded: bool = True,
                 sweep: SweepPlan | None = None, control_dt: float = 0.1,
                 r_c: float | None = None):
        self.q = np.asarray(q0, dtype=float).copy()
        self.frame = frame
        self.gains = gains
        self.bounded = bounded
        self.sweep = sweep
        self.control_dt = control_dt
        self.r_c = r_c
        self.t = 0.0
        self.active = np.ones(len(self.q), dtype=bool)
        self.events: list = []      # (t, kind, data)
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
        out[idx] = coverage_control(self.q[idx], self.centroids()[0][idx], self.gains,
                                    self.bounded)
        return out

    def tick(self):
        _check_finite([self.q])
        self.events.extend((self.t, kind, data) for kind, data in self._partition().events)
        self.q = self.q + self.velocities() * self.control_dt
        if self.sweep is not None:
            self.frame = self.sweep.step(self.control_dt)
        self.t += self.control_dt

    def min_pairwise(self) -> float:
        return min_pair_distance(self.q[self.active])


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
            half_sq = 0.5 * np.einsum("ij,ij->i", proj, proj)
            for row, cell in enumerate(cells):
                far = np.nonzero(~mask[row])[0]
                if len(cell) < 3 or len(far) == 0:
                    continue
                cut = np.any(cell @ (proj[far] - proj[row]).T
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
