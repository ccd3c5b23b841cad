"""Synthetic tunnel point clouds.

A tunnel is a tube swept along a smooth (or piecewise-linear) axis curve.
The generator samples the wall surface as a point cloud and keeps the axis
polyline as ground truth so runs can be scored by curvilinear progress.
Frames along the axis are parallel-transported to avoid twist.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geom import perpendicular_basis, unit


class TunnelGenerationError(Exception):
    pass


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
        self._tree = cKDTree(self.points)
        self._axis_tree = cKDTree(self.axis)

    @property
    def length(self) -> float:
        return float(self.axis_s[-1])

    def wall_distance(self, p: np.ndarray) -> float:
        return float(self._tree.query(np.asarray(p, dtype=float))[0])

    def curvilinear(self, p: np.ndarray) -> float:
        """Arclength coordinate of the axis point nearest to p (wraps modulo
        length for closed axes)."""
        _, idx = self._axis_tree.query(np.asarray(p, dtype=float))
        return float(self.axis_s[idx])

    def axis_distance(self, p: np.ndarray) -> float:
        """Distance from p to the axis polyline (r(p) of the tube)."""
        d, _ = self._axis_tree.query(np.asarray(p, dtype=float))
        return float(d)

    @classmethod
    def from_xyz_file(cls, path, nominal_radius: float = 1.0,
                      axis: np.ndarray | None = None) -> "TunnelCloud":
        """Load a cloud from whitespace-separated XYZ text (one point/line)."""
        pts = np.loadtxt(path, dtype=float)
        pts = np.atleast_2d(pts)
        if pts.shape[1] != 3:
            raise TunnelGenerationError("xyz file must have three columns")
        if axis is None:
            # fall back to a degenerate axis at the centroid
            axis = np.vstack([pts.mean(axis=0), pts.mean(axis=0) + [1e-6, 0, 0]])
        axis_s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(axis, axis=0), axis=1))])
        return cls(pts, np.asarray(axis, dtype=float), axis_s, nominal_radius)

    def save_xyz(self, path) -> None:
        np.savetxt(path, self.points, fmt="%.6f")


def _parallel_frames(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tangents plus parallel-transported normals/binormals along a polyline."""
    diffs = np.diff(axis, axis=0)
    seglen = np.linalg.norm(diffs, axis=1)
    if np.any(seglen < 1e-12):
        raise TunnelGenerationError("degenerate axis sampling")
    tangents = np.vstack([diffs / seglen[:, None], diffs[-1:] / seglen[-1]])
    n0, _ = perpendicular_basis(tangents[0])
    normals = [n0]
    for i in range(1, len(axis)):
        t_prev, t_cur = tangents[i - 1], tangents[i]
        n = normals[-1]
        c = np.cross(t_prev, t_cur)
        s = np.linalg.norm(c)
        if s > 1e-12:
            axis_rot = c / s
            ang = np.arctan2(s, float(np.dot(t_prev, t_cur)))
            cr, sr = np.cos(ang), np.sin(ang)
            n = (cr * n + sr * np.cross(axis_rot, n)
                 + (1 - cr) * axis_rot * np.dot(axis_rot, n))
        n = n - np.dot(n, t_cur) * t_cur
        normals.append(unit(n))
    normals = np.asarray(normals)
    binormals = np.cross(tangents, normals)
    return tangents, normals, binormals


def _check_axis(axis: np.ndarray, radius: float, closed: bool) -> None:
    """Reject self-intersecting axes: samples far apart along the curve must
    not come closer than the tube diameter in space."""
    seg = np.linalg.norm(np.diff(axis, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    tree = cKDTree(axis)
    pairs = tree.query_pairs(r=1.5 * radius)
    for i, j in pairs:
        gap = abs(s[i] - s[j])
        if closed:
            gap = min(gap, total - gap)
        if gap > 4.0 * radius:
            raise TunnelGenerationError("self-intersecting tunnel axis")


def _sweep(axis: np.ndarray, radius: float, *, closed: bool, shape: str,
           density: float, section: str = "circle",
           radius_fn=None) -> TunnelCloud:
    """Sample rings along the axis at `density` points per meter of axis."""
    _check_axis(axis, radius, closed)
    tangents, normals, binormals = _parallel_frames(axis)
    seg = np.linalg.norm(np.diff(axis, axis=0), axis=1)
    axis_s = np.concatenate([[0.0], np.cumsum(seg)])
    ds = float(np.mean(seg))
    ring_pts = max(8, int(np.ceil(density * ds)))
    phis = np.linspace(0.0, 2.0 * np.pi, ring_pts, endpoint=False)
    pts = []
    for i in range(len(axis)):
        r_i = radius if radius_fn is None else float(radius_fn(axis_s[i]))
        if section == "circle":
            ring = (axis[i][None, :]
                    + r_i * np.cos(phis)[:, None] * normals[i][None, :]
                    + r_i * np.sin(phis)[:, None] * binormals[i][None, :])
        else:  # square cross-section of half-width r_i
            tpar = np.linspace(0.0, 4.0, ring_pts, endpoint=False)
            xy = np.empty((ring_pts, 2))
            for k, tt in enumerate(tpar):
                side, frac = int(tt), tt - int(tt)
                if side == 0:
                    xy[k] = (-1 + 2 * frac, -1)
                elif side == 1:
                    xy[k] = (1, -1 + 2 * frac)
                elif side == 2:
                    xy[k] = (1 - 2 * frac, 1)
                else:
                    xy[k] = (-1, 1 - 2 * frac)
            ring = (axis[i][None, :]
                    + r_i * xy[:, 0:1] * normals[i][None, :]
                    + r_i * xy[:, 1:2] * binormals[i][None, :])
        pts.append(ring)
    return TunnelCloud(np.vstack(pts), axis, axis_s, radius, shape, closed)


def generate_tunnel(shape: str, *, radius: float = 2.0, length: float = 40.0,
                    density: float = 400.0, ds: float = 0.1,
                    seed: int | None = None, **kw) -> TunnelCloud:
    """Build one of the stock tunnel shapes.

    density is points per meter of axis; ds the axis sampling step.
    Shapes: straight, smooth-bend, torus, helix, sharp-bends, s-shape,
    rectangular, pipeline, narrowing.
    """
    if radius <= 0.0 or length <= 0.0 or density <= 0.0:
        raise TunnelGenerationError("tunnel parameters must be positive")

    if shape == "straight":
        n = int(np.ceil(length / ds)) + 1
        axis = np.stack([np.linspace(0.0, length, n),
                         np.zeros(n), np.zeros(n)], axis=1)
        closed = False
    elif shape == "smooth-bend":
        # straight run, 90 degree arc, straight run
        run = length * 0.3
        arc_r = kw.get("bend_radius", length * 0.25)
        s_tot = 2 * run + 0.5 * np.pi * arc_r
        n = int(np.ceil(s_tot / ds)) + 1
        svals = np.linspace(0.0, s_tot, n)
        axis = np.empty((n, 3))
        for i, s in enumerate(svals):
            if s < run:
                axis[i] = (s, 0.0, 0.0)
            elif s < run + 0.5 * np.pi * arc_r:
                th = (s - run) / arc_r
                axis[i] = (run + arc_r * np.sin(th), arc_r * (1 - np.cos(th)), 0.0)
            else:
                s2 = s - run - 0.5 * np.pi * arc_r
                axis[i] = (run + arc_r, arc_r + s2, 0.0)
        closed = False
    elif shape == "torus":
        ring_r = kw.get("ring_radius", length / (2.0 * np.pi))
        n = int(np.ceil(2.0 * np.pi * ring_r / ds))
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        axis = np.stack([ring_r * np.cos(th), ring_r * np.sin(th),
                         np.zeros(n)], axis=1)
        closed = True
    elif shape == "helix":
        helix_r = kw.get("helix_radius", 8.0)
        pitch = kw.get("pitch", 5.0)
        turns = kw.get("turns", 1.25)
        th_max = 2.0 * np.pi * turns
        circ = np.hypot(helix_r, pitch / (2 * np.pi))
        n = int(np.ceil(th_max * circ / ds)) + 1
        th = np.linspace(0.0, th_max, n)
        axis = np.stack([helix_r * np.cos(th), helix_r * np.sin(th),
                         pitch * th / (2.0 * np.pi)], axis=1)
        closed = False
    elif shape in ("sharp-bends", "s-shape", "pipeline", "rectangular"):
        if shape == "sharp-bends":
            wps = [(0, 0, 0), (0.35 * length, 0, 0), (0.35 * length, 0.3 * length, 0),
                   (0.7 * length, 0.3 * length, 0.15 * length), (length, 0.3 * length, 0.15 * length)]
        elif shape == "s-shape":
            wps = [(0, 0, 0), (0.3 * length, 0, 0), (0.5 * length, 0.25 * length, 0),
                   (0.7 * length, 0, 0), (length, 0, 0)]
        elif shape == "rectangular":
            wps = [(0, 0, 0), (0.4 * length, 0, 0), (0.4 * length, 0.35 * length, 0),
                   (0.9 * length, 0.35 * length, 0)]
        else:  # pipeline: bends in all three axes
            wps = [(0, 0, 0), (0.25 * length, 0, 0), (0.45 * length, 0.18 * length, 0),
                   (0.6 * length, 0.18 * length, 0.18 * length),
                   (0.85 * length, 0.05 * length, 0.18 * length),
                   (length, 0.05 * length, 0.18 * length)]
        pts = [np.asarray(wps[0], dtype=float)]
        for wp in wps[1:]:
            wp = np.asarray(wp, dtype=float)
            seg = wp - pts[-1]
            n = max(1, int(np.ceil(np.linalg.norm(seg) / ds)))
            base = pts[-1]
            for k in range(1, n + 1):
                pts.append(base + seg * (k / n))
        axis = np.asarray(pts)
        # round corners slightly so frames stay well-conditioned
        for _ in range(kw.get("corner_smoothing", 12 if shape != "rectangular" else 8)):
            axis[1:-1] = 0.5 * axis[1:-1] + 0.25 * (axis[:-2] + axis[2:])
        closed = False
    elif shape == "narrowing":
        n = int(np.ceil(length / ds)) + 1
        axis = np.stack([np.linspace(0.0, length, n),
                         np.zeros(n), np.zeros(n)], axis=1)
        r0 = kw.get("start_radius", radius)
        r1 = kw.get("end_radius", 0.65 * radius)
        return _sweep(axis, r0, closed=False, shape=shape, density=density,
                      radius_fn=lambda s: r0 + (r1 - r0) * s / length)
    else:
        raise TunnelGenerationError(f"unknown tunnel shape {shape!r}")

    section = "square" if shape == "rectangular" else "circle"
    return _sweep(axis, radius, closed=closed, shape=shape, density=density,
                  section=section)
