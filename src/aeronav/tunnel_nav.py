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

Without sensor noise, the slices pipeline senses only the points it can
use: the tunnel cloud's uniform grid (`tunnels.CellGrid`) hands it the
cells near the two probe planes, and the range and slab tests run on those.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import norm, row_norms, sq_distances, unit, unit_or_zero
from .tunnels import GRID_CELL, CellGrid, k_nearest
from .world import SensingModel, sense_points

# consecutive failed robust perceptions after which the navigator stops
ROBUST_FAIL_LIMIT = 5


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
    rel = cloud - origin[None, :]
    return cloud[np.abs(rel @ normal) <= tol]


def slice_centroids(c: np.ndarray, heading: np.ndarray, cloud: np.ndarray,
                    params: TunnelParams) -> SliceCentroids:
    """Centroids of the two wall slices at D1 and D2 ahead of c along the
    (unit) heading, and the point-line distance h from c to their chord."""
    f = np.asarray(heading, dtype=float)
    if abs(norm(f) - 1.0) > 1e-6:
        raise ValueError("heading must be unit length")
    if len(cloud) == 0:
        raise SliceStarvation("empty cloud")
    slabs = []
    for d_i in (params.d1, params.d2):
        o_i = c + d_i * f
        pts = slice_points(cloud, o_i, f, params.slice_tol)
        if len(pts) == 0:
            raise SliceStarvation(f"no wall points in the slice at {d_i} m")
        slabs.append(pts.mean(axis=0))
    return _chord_centroids(c, *slabs)


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
                    voxel: float = 0.15,
                    normal_k: int = 10) -> tuple[np.ndarray, np.ndarray] | None:
    """Nine-step robust centroid pipeline.

    Downsample, probe N points ahead, slice, centroid, validate against
    d_safe, repair invalid centroids along mean surface normals, re-validate,
    pick the two nearest valid ones.  Fewer than two valid returns None;
    the caller terminates at ROBUST_FAIL_LIMIT consecutive failures.
    """
    probe_distances = list(probe_distances)
    if len(probe_distances) < 2:
        raise ValueError("need at least two probe distances")
    f = unit(np.asarray(heading, dtype=float))
    ws = voxel_downsample(cloud, voxel)
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
    """Constant-speed tunnel executor over a sensed point cloud."""

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
        # noisy sensing draws noise for every sensed point and the robust
        # pipeline downsamples the whole sensed cloud: both need all of it.
        # A grid handed in must be the GRID_CELL grid over cloud_all.
        self.grid = ((grid or CellGrid(self.cloud_all, GRID_CELL))
                     if pipeline == "slices" and not self.sensing.sigma > 0.0 else None)
        self.failures = 0         # consecutive failed robust perceptions
        self.mode = "M1"
        self.terminated = False

    def control(self, c: np.ndarray) -> np.ndarray:
        if self.terminated:
            return np.zeros(3)
        f = unit(self.v_prev)
        local = self._sense(c, f)
        if len(local) == 0:
            self.terminated = True
            return np.zeros(3)
        p = self.params
        try:
            if self.pipeline == "robust":
                got = perceive_robust(c, f, local, self.probe_distances, p)
                if got is None:
                    self.failures += 1
                    if self.failures >= ROBUST_FAIL_LIMIT:
                        self.terminated = True
                    return self.v_prev
                self.failures = 0
                cents = _chord_centroids(c, *got)
            else:
                cents = slice_centroids(c, f, local, p)
        except SliceStarvation:
            self.terminated = True
            return np.zeros(3)
        v_k, self.mode = tunnel_law(c, cents, p)
        self.v_prev = v_k
        return v_k

    def _sense(self, c: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The sensed cloud; with a grid, only its points in the cells near
        the two probe planes, a superset of both slices in cloud order."""
        if self.grid is None:
            return sense_points(c, self.cloud_all, self.sensing, self.rng)
        p = self.params
        return self.grid.sensed_near_planes(c, f, (p.d1, p.d2), p.slice_tol,
                                            self.sensing.d_sensing)
