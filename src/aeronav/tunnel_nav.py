"""Tunnel navigation from point clouds: slice-centroid estimation, the
constant-speed two-mode steering law, and the robust perception pipeline.

Per control period the vehicle slices the sensed wall cloud with planes
orthogonal to its motion at probe distances ahead, takes the slice
centroids G1/G2, and either flies along A = G2 - G1 (when close enough to
the estimated axis) or rotates that direction by a fixed angle toward the
axis to re-center.  The robust pipeline ("robust") downsamples the cloud to
one mean per voxel (Rusu & Cousins 2011, the PCL voxel-grid filter), probes
several distances and repairs centroids too close to the wall, fitting wall
normals to the nearest points of the downsampled cloud it validates
against; the default ("slices") uses the two slices as they are.  The
downsampling groups the points into voxels with the grid the tunnel cloud
uses for its queries (`tunnels.CellGrid`).

Each pipeline reads per tick only the rows it uses, with the result of
sensing the whole cloud (`world.sense_points`) and cutting all of it, bit
for bit:
- slices, without noise: the rows of the tunnel grid's cells near each
  probe plane; only the slab members are put back in cloud order and
  range-tested.
- slices, with noise: the range test of every row, made by grid cells, and
  the noise draw for all the rows in range, in cloud order, as
  `sense_points` makes it.  Noisy rows are formed only in the cells near a
  probe plane, widened by the largest shift along the heading the drawn
  noise can give; each row takes the noise of its rank among the rows in
  range.
- robust, without noise: a range test of every row against a voxel table
  built once per run.  A voxel with all its rows in range keeps its mean
  over the whole cloud, one with some averages those, an empty one drops.
- robust, with noise: the whole sensed cloud, downsampled every tick.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import norm, row_norms, sq_distances, unit, unit_or_zero
from .tunnels import GRID_CELL, CellGrid, k_nearest
from .world import SensingModel, in_range, sense_points

# consecutive failed robust perceptions after which the navigator stops
ROBUST_FAIL_LIMIT = 5
# voxel edge of the robust pipeline's downsampling [m]
ROBUST_VOXEL = 0.15


class SliceStarvation(Exception):
    """A probe slice caught no points; the caller decides the policy."""


@dataclass(frozen=True)
class TunnelParams:
    v: float = 1.0                    # constant speed
    delta: float = 0.1                # control period
    d1: float = 1.0                   # probe distances (ascending)
    d2: float = 3.0
    radius: float = 1.5               # clearance parameter R of the law
    beta0: float = np.pi / 4          # re-centering rotation angle
    slice_tol: float = 0.1            # slab half-thickness epsilon
    d_sensing: float = 20.0
    d_safe: float = 0.45

    def __post_init__(self):
        if not (self.d2 > self.d1 >= 0.0):
            raise ValueError("need D2 > D1 >= 0")
        if not (0.0 < self.beta0 < np.pi / 2):
            raise ValueError("beta0 must lie in (0, pi/2)")

    @property
    def eps0(self) -> float:
        return self.v * self.delta


@dataclass
class SliceCentroids:
    g1: np.ndarray
    a: np.ndarray          # G2 - G1
    h: float               # distance from the vehicle to the line G1-G2


def slice_points(cloud: np.ndarray, origin: np.ndarray, normal: np.ndarray,
                 tol: float) -> np.ndarray:
    """Points within |<p - origin, n>| <= tol of the plane through origin."""
    return cloud[_in_slab(cloud, origin, normal, tol)]


def _in_slab(cloud: np.ndarray, origin: np.ndarray, normal: np.ndarray,
             tol: float) -> np.ndarray:
    return np.abs((cloud - origin[None, :]) @ normal) <= tol


def slice_centroids(c: np.ndarray, heading: np.ndarray, cloud: np.ndarray,
                    params: TunnelParams) -> SliceCentroids:
    """Centroids of the two wall slices at D1 and D2 ahead of c along the
    (unit) heading, and the point-line distance h from c to their chord."""
    f = np.asarray(heading, dtype=float)
    if abs(norm(f) - 1.0) > 1e-6:
        raise ValueError("heading must be unit length")
    if len(cloud) == 0:
        raise SliceStarvation("empty cloud")
    return _slab_centroids(c, *(slice_points(cloud, c + d_i * f, f, params.slice_tol)
                                for d_i in (params.d1, params.d2)))


def _slab_centroids(c: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> SliceCentroids:
    """_chord_centroids of the means of the two slabs' points; SliceStarvation
    when either slab is empty."""
    if len(s1) == 0 or len(s2) == 0:
        raise SliceStarvation("no wall points in a slice")
    return _chord_centroids(c, s1.mean(axis=0), s2.mean(axis=0))


def _chord_centroids(c: np.ndarray, g1: np.ndarray, g2: np.ndarray) -> SliceCentroids:
    """The centroid pair G1, G2 with the point-line distance h from c to
    their chord."""
    a = g2 - g1
    an = norm(a)
    if an < 1e-9:
        raise SliceStarvation("degenerate slice chord (G1 == G2)")
    r = c - g1
    h = norm(r - np.dot(r, a / an) * (a / an))
    return SliceCentroids(g1, a, h)


def tunnel_law(c: np.ndarray, centroids: SliceCentroids,
               params: TunnelParams) -> tuple[np.ndarray, str]:
    """Velocity command of constant magnitude v: along A when h is inside the
    re-centering band, otherwise A rotated by beta0 toward the axis chord."""
    a = centroids.a
    a_hat = a / norm(a)  # _chord_centroids refuses |A| < 1e-9
    if centroids.h < params.radius - 2.0 * params.eps0:
        return params.v * a_hat, "M1"
    # rotate toward the chord: decompose the vehicle offset from the line
    r = c - centroids.g1
    perp = r - np.dot(r, a_hat) * a_hat
    to_axis = -unit_or_zero(perp)
    if norm(to_axis) < 1e-9:
        return params.v * a_hat, "M1"
    b_hat = np.cos(params.beta0) * a_hat + np.sin(params.beta0) * to_axis
    return params.v * unit(b_hat), "M2"


def voxel_downsample(cloud: np.ndarray, voxel: float) -> np.ndarray:
    """Mean point per occupied voxel, in lexicographic voxel order: the cell
    means of a `CellGrid` with voxel-sized cells.  Output size never exceeds
    the input.  A voxel's mean lies in the voxel's box, so every input point
    lies within one voxel diagonal (sqrt(3) voxel) of the mean of its own
    voxel; no tighter bound holds in general."""
    if voxel <= 0.0:
        raise ValueError("voxel size must be positive")
    if len(cloud) == 0:
        return cloud.copy()
    return CellGrid(cloud, voxel).cell_means()


class VoxelTable:
    """The voxels of a fixed cloud, each with the mean of all its points:
    `voxel_downsample` of the points within range of a query, without
    regrouping them."""

    def __init__(self, cloud: np.ndarray, voxel: float):
        self.voxel = voxel
        self.grid = CellGrid(cloud, voxel)
        self.means = voxel_downsample(cloud, voxel)
        self.means.flags.writeable = False

    def downsample_in_range(self, c: np.ndarray, d_range: float) -> np.ndarray:
        """voxel_downsample(sense_points(c, cloud, SensingModel(d_range)),
        voxel), bit for bit.  A voxel's points are in cloud order in the
        grid, so a voxel with all its points in range keeps its mean, one
        with some in range averages those alone, and an empty one drops; the
        voxels stay in grid order, which is the downsampling's."""
        g = self.grid
        inside = in_range(c, g.sorted_points, d_range)
        n_in = np.add.reduceat(inside, g.starts, dtype=np.intp)   # per voxel
        whole = n_in == g.counts
        if whole.all():
            return self.means
        out = self.means.copy()
        part = ~whole & (n_in > 0)
        if part.any():
            rows = g.sorted_points[inside & np.repeat(part, g.counts)]
            out[part] = voxel_downsample(rows, self.voxel)
        return out[n_in > 0]


def estimate_normals(points: np.ndarray, query: np.ndarray, k: int = 10) -> np.ndarray:
    """Surface normals at the query points by local plane fit over the k
    nearest of the (N, 3) points (smallest principal component)."""
    out = np.empty((len(query), 3))
    for i, q in enumerate(query):
        pts = points[k_nearest(points, q, k)]
        centered = pts - pts.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        out[i] = vt[-1]
    return out


def perceive_robust(c: np.ndarray, heading: np.ndarray, cloud: np.ndarray,
                    probe_distances, params: TunnelParams,
                    voxel: float = ROBUST_VOXEL,
                    normal_k: int = 10) -> tuple[np.ndarray, np.ndarray] | None:
    """Nine-step robust centroid pipeline.

    Downsample, probe N points ahead, slice, centroid, validate against
    d_safe, repair invalid centroids along mean surface normals, re-validate,
    pick the two nearest valid ones.  Fewer than two valid returns None;
    the caller terminates at ROBUST_FAIL_LIMIT consecutive failures.
    """
    return _perceive_voxels(c, heading, voxel_downsample(cloud, voxel), probe_distances,
                            params, normal_k)


def _perceive_voxels(c, heading, ws, probe_distances, params: TunnelParams,
                     normal_k: int = 10):
    """`perceive_robust` after its downsampling, of the voxel means ws."""
    probe_distances = list(probe_distances)
    if len(probe_distances) < 2:
        raise ValueError("need at least two probe distances")
    f = unit(np.asarray(heading, dtype=float))
    if len(ws) == 0:
        return None

    centroids = []
    for d_i in probe_distances:
        o_i = c + d_i * f
        pts = slice_points(ws, o_i, f, params.slice_tol)
        if len(pts) == 0:
            continue
        centroids.append(pts.mean(axis=0))
    if not centroids:
        return None

    def clearance(q):
        return np.sqrt(sq_distances(ws, q[..., None, :]).min(axis=-1))

    cents = np.array(centroids)
    valid = clearance(cents) > params.d_safe
    if np.count_nonzero(valid) < 2:
        # repair: push invalid centroids along the mean surface normal of
        # their nearest neighbors until they clear d_safe
        repaired = []
        for g, ok in zip(cents, valid):
            if ok:
                continue
            d_g = clearance(g)
            normal = estimate_normals(ws, g[None, :], k=normal_k)[0]
            # orient the normal to increase wall clearance
            if clearance(g + 0.05 * normal) < d_g:
                normal = -normal
            push = (params.d_safe - float(d_g)) * 1.25 + 0.05
            repaired.append(g + push * normal)
        if repaired:
            cents = np.vstack([cents, np.array(repaired)])
            valid = clearance(cents) > params.d_safe

    good = cents[valid]
    if len(good) < 2:
        return None
    dist = row_norms(good - c)
    order = np.argsort(dist)
    g1, g2 = good[order[0]], good[order[1]]
    return g1, g2


class TunnelNavigator:
    """Constant-speed tunnel executor over a sensed point cloud.  The slices
    pipeline cuts its slices through the GRID_CELL grid over cloud_all: a
    grid handed in must be that one.  The noise-free robust pipeline builds
    its voxel table at its first tick."""

    def __init__(self, params: TunnelParams, cloud_all: np.ndarray,
                 v0: np.ndarray, sensing: SensingModel | None = None,
                 rng: np.random.Generator | None = None,
                 pipeline: str = "slices", probe_distances=None,
                 grid: CellGrid | None = None):
        if pipeline not in ("slices", "robust"):
            raise ValueError(f"unknown tunnel pipeline {pipeline!r}")
        self.params = params
        self.cloud_all = np.asarray(cloud_all, dtype=float)
        self.v_prev = unit(np.asarray(v0, dtype=float)) * params.v
        self.sensing = sensing or SensingModel(d_sensing=params.d_sensing)
        self.rng = rng
        self.pipeline = pipeline
        self.probe_distances = probe_distances or [params.d1, params.d2]
        self.grid = (grid or CellGrid(self.cloud_all, GRID_CELL)) if pipeline == "slices" else None
        self.voxels = None        # the noise-free robust pipeline's VoxelTable
        self.failures = 0         # consecutive failed robust perceptions
        self.mode = "M1"
        self.terminated = False

    def control(self, c: np.ndarray) -> np.ndarray:
        if self.terminated:
            return np.zeros(3)
        f = unit(self.v_prev)
        p = self.params
        try:
            if self.pipeline == "robust":
                got = self._perceive_robust(c, f)
                if got is None:
                    self.failures += 1
                    if self.failures >= ROBUST_FAIL_LIMIT:
                        self.terminated = True
                    return self.v_prev
                self.failures = 0
                cents = _chord_centroids(c, *got)
            else:
                cents = _slab_centroids(c, *self.slices(c, f))
        except SliceStarvation:
            self.terminated = True
            return np.zeros(3)
        v_k, self.mode = tunnel_law(c, cents, p)
        self.v_prev = v_k
        return v_k

    def slices(self, c: np.ndarray, f: np.ndarray) -> list[np.ndarray]:
        """The two slices at d1 and d2 of the sensed cloud, each in cloud
        order: slice_points(sense_points(c, cloud_all, sensing, rng),
        c + d f, f, slice_tol), with the same noise draws.

        Without noise only the slab members are range-tested.  With noise
        every row must be, since the draw covers all rows in range; the
        tunnel grid's cells then set the rows of cells wholly in range
        without a distance.  Measured per tick over the stock runs (2-core
        VM, alternating): the noise-free cut takes 75-148 us on tunnels a-f
        where the noisy one run with zero noise (whole-cloud range test,
        no draw) takes 236-436 us; on tunnel-g the grid's range test takes
        108 us against 309 us for `world.in_range` over the whole cloud."""
        p, cloud, sensing, grid = self.params, self.cloud_all, self.sensing, self.grid
        offsets, width = (p.d1, p.d2), p.slice_tol
        if sensing.sigma > 0.0:
            if self.rng is None:
                raise ValueError("noisy sensing requires an rng")
            inside = grid.in_range(c, sensing.d_sensing)
            kept = np.flatnonzero(inside)       # the sensed rows, in cloud order
            noise = self.rng.normal(0.0, sensing.sigma, size=(len(kept), 3))
            # a row's noise moves it along f by at most max|noise| |f|_1
            width += float(np.abs(noise).max(initial=0.0)) * float(np.abs(f).sum())
        out = []
        for d, pos in zip(offsets, grid.near_planes(c, f, offsets, width, sensing.d_sensing)):
            o = c + d * f
            if sensing.sigma > 0.0:
                rows = np.take(grid.order, pos)
                rows = rows[inside[rows]]
                pts = (np.take(cloud, rows, axis=0)
                       + np.take(noise, np.searchsorted(kept, rows), axis=0))
                member = _in_slab(pts, o, f, p.slice_tol)
                out.append(pts[member][np.argsort(rows[member])])
            else:
                member = pos[_in_slab(grid.rows_at(pos), o, f, p.slice_tol)]
                out.append(sense_points(c, np.take(cloud, np.sort(grid.order[member]), axis=0),
                                        sensing))
        return out

    def _perceive_robust(self, c: np.ndarray, f: np.ndarray):
        """perceive_robust of the sensed cloud; SliceStarvation when nothing
        is in range."""
        p = self.params
        if self.sensing.sigma > 0.0:
            local = sense_points(c, self.cloud_all, self.sensing, self.rng)
            if len(local) == 0:
                raise SliceStarvation("nothing in sensing range")
            return perceive_robust(c, f, local, self.probe_distances, p)
        if self.voxels is None:
            self.voxels = VoxelTable(self.cloud_all, ROBUST_VOXEL)
        ws = self.voxels.downsample_in_range(c, self.sensing.d_sensing)
        if len(ws) == 0:
            raise SliceStarvation("nothing in sensing range")
        return _perceive_voxels(c, f, ws, self.probe_distances, p)
