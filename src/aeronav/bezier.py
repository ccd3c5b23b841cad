"""Quintic Bezier splines with C2 stitching and local deformation support.

A path is a chain of quintic segments, each parameterized on [0, 1].
Junction continuity is enforced through the closed-form endpoint control
points (first/second derivative pinning) plus a constant 4x4 solve for the
interior control points of a two-segment stitch.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .geom import norm, row_norms, sq_distances, unit

# power-basis coefficient matrix: f(s) = T(s) G CP with T = [s^5 ... s 1]
G_QUINTIC = np.array([
    [-1, 5, -10, 10, -5, 1],
    [5, -20, 30, -20, 5, 0],
    [-10, 30, -30, 10, 0, 0],
    [10, -20, 10, 0, 0, 0],
    [-5, 5, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
], dtype=float)

# interior control points of a two-segment C2 stitch (rows: C1, C2 and two
# higher-order smoothness conditions closing the system)
STITCH_M = np.array([
    [0, 1, 1, 0],
    [1, -2, 2, -1],
    [2, -2, -2, 2],
    [6, -4, 4, -6],
], dtype=float)
STITCH_M_INV = np.linalg.inv(STITCH_M)


@cache
def _grid(n: int, endpoint: bool) -> np.ndarray:
    """np.linspace(0, 1, n, endpoint=endpoint), built once and read-only."""
    u = np.linspace(0.0, 1.0, n, endpoint=endpoint)
    u.flags.writeable = False
    return u


@dataclass(frozen=True)
class QuinticBezier:
    """Single quintic segment; control: (6, dim) array P0..P5.  Its uniform
    samples are kept per (n, endpoint), so a path that keeps the segment
    never evaluates it again."""
    control: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "control", np.asarray(self.control, dtype=float))
        if self.control.shape[0] != 6:
            raise ValueError("quintic Bezier needs six control points")
        object.__setattr__(self, "_samples", {})

    def point(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        powers = [s ** 5, s ** 4, s ** 3, s ** 2, s]
        t = np.array([*powers, 1.0]) if s.ndim == 0 else np.stack(
            [*powers, np.ones_like(s)], axis=-1)
        return t @ G_QUINTIC @ self.control

    def samples(self, n: int, endpoint: bool) -> np.ndarray:
        """point(np.linspace(0, 1, n, endpoint=endpoint)), evaluated once;
        read-only."""
        rows = self._samples.get((n, endpoint))
        if rows is None:
            rows = self._samples[n, endpoint] = self.point(_grid(n, endpoint))
            rows.flags.writeable = False
        return rows

    def deriv(self, s, order: int = 1) -> np.ndarray:
        c = G_QUINTIC @ self.control  # power-basis coefficients, degree 5..0
        for _ in range(order):
            c = c[:-1] * np.arange(len(c) - 1, 0, -1)[:, None]
        s = np.asarray(s, dtype=float)
        powers = [s ** k for k in range(len(c) - 1, -1, -1)]
        return (np.array(powers) if s.ndim == 0 else np.stack(powers, axis=-1)) @ c


def hermite_quintic(p0, d0, dd0, p1, d1, dd1) -> QuinticBezier:
    """Unique quintic with prescribed endpoint value/first/second derivative
    (in the segment parameter)."""
    p0, d0, dd0 = (np.asarray(a, dtype=float) for a in (p0, d0, dd0))
    p1, d1, dd1 = (np.asarray(a, dtype=float) for a in (p1, d1, dd1))
    c0 = p0
    c1 = d0 / 5.0 + c0
    c2 = dd0 / 20.0 + 2.0 * c1 - c0
    c5 = p1
    c4 = c5 - d1 / 5.0
    c3 = dd1 / 20.0 + 2.0 * c4 - c5
    return QuinticBezier(np.stack([c0, c1, c2, c3, c4, c5]))


def stitch_three_point(p1, p2, p3, d_s, dd_s, d_e, dd_e) -> list[QuinticBezier]:
    """Two C2-stitched quintics interpolating p1 -> p2 -> p3 with prescribed
    boundary derivatives at p1 and p3.

    Endpoint control points come from the derivative pinning closed forms;
    the four interior ones from the constant 4x4 linear system.
    """
    p1, p2, p3 = (np.asarray(a, dtype=float) for a in (p1, p2, p3))
    d_s, dd_s, d_e, dd_e = (np.asarray(a, dtype=float) for a in (d_s, dd_s, d_e, dd_e))
    if norm(p1 - p2) < 1e-9 or norm(p2 - p3) < 1e-9:
        raise ValueError("stitch waypoints must be distinct")

    p01 = p1
    p11 = d_s / 5.0 + p01
    p21 = dd_s / 20.0 + 2.0 * p11 - p01
    p52 = p3
    p42 = p52 - d_e / 5.0
    p32 = dd_e / 20.0 + 2.0 * p42 - p52
    p51 = p2
    p02 = p2

    rhs = np.stack([
        p51 + p02,
        -p51 + p02,
        p21 - p51 - p02 + p32,
        -p11 + 4.0 * p21 - p51 + p02 - 4.0 * p32 + p42,
    ])
    interior = STITCH_M_INV @ rhs
    p31, p41, p12, p22 = interior

    seg1 = QuinticBezier(np.stack([p01, p11, p21, p31, p41, p51]))
    seg2 = QuinticBezier(np.stack([p02, p12, p22, p32, p42, p52]))

    res = max(
        float(np.max(np.abs(seg1.deriv(1.0) - seg2.deriv(0.0)))),
        float(np.max(np.abs(seg1.deriv(1.0, 2) - seg2.deriv(0.0, 2)))),
    )
    if res > 1e-9:
        raise ArithmeticError(f"stitch continuity residual {res:.3e} exceeds 1e-9")
    return [seg1, seg2]


class PiecewisePath:
    """Chain of quintic segments with C2 junctions.

    The global parameter spans [0, n_segments]; segment i covers [i, i+1].
    Paths are treated as immutable (deformation returns a new path), so
    each sample table is built once per resolution and kept, from the
    segments' own kept samples, and the last closest-point query is
    remembered by its value.
    """

    def __init__(self, segments: list[QuinticBezier]):
        if not segments:
            raise ValueError("path needs at least one segment")
        self.segments = list(segments)
        self._tables = {}
        self._closest = (None, 0.0)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_waypoints(cls, waypoints, d_start=None, dd_start=None,
                       d_end=None, dd_end=None) -> "PiecewisePath":
        """C2 interpolant of the waypoints: interior derivatives from central
        differences, endpoints from the supplied boundary data (default:
        chord direction, zero curvature)."""
        w = np.asarray(waypoints, dtype=float)
        if len(w) < 2:
            raise ValueError("need at least two waypoints")
        if len(w) == 2:
            d = w[1] - w[0]
            z = np.zeros_like(d)
            d0 = d if d_start is None else np.asarray(d_start, dtype=float)
            d1 = d if d_end is None else np.asarray(d_end, dtype=float)
            dd0 = z if dd_start is None else np.asarray(dd_start, dtype=float)
            dd1 = z if dd_end is None else np.asarray(dd_end, dtype=float)
            return cls([hermite_quintic(w[0], d0, dd0, w[1], d1, dd1)])

        n = len(w)
        d = np.empty_like(w)
        dd = np.empty_like(w)
        d[0] = (w[1] - w[0]) if d_start is None else d_start
        d[-1] = (w[-1] - w[-2]) if d_end is None else d_end
        dd[0] = 0.0 if dd_start is None else dd_start
        dd[-1] = 0.0 if dd_end is None else dd_end
        for i in range(1, n - 1):
            d[i] = 0.5 * (w[i + 1] - w[i - 1])
            dd[i] = w[i + 1] - 2.0 * w[i] + w[i - 1]
        segs = [hermite_quintic(w[i], d[i], dd[i], w[i + 1], d[i + 1], dd[i + 1])
                for i in range(n - 1)]
        return cls(segs)

    @classmethod
    def straight(cls, a, b, segment_length: float | None = None) -> "PiecewisePath":
        """Straight path, optionally pre-subdivided so local deformations have
        junctions to splice at."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if segment_length is None:
            return cls.from_waypoints([a, b])
        n = max(1, int(np.ceil(norm(b - a) / segment_length)))
        w = a[None, :] + np.linspace(0.0, 1.0, n + 1)[:, None] * (b - a)[None, :]
        return cls.from_waypoints(w)

    # -- evaluation ---------------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def _locate(self, s: float) -> tuple[int, float]:
        s = float(np.clip(s, 0.0, self.n_segments))
        i = min(int(np.floor(s)), self.n_segments - 1)
        return i, s - i

    def point(self, s: float) -> np.ndarray:
        i, u = self._locate(s)
        return self.segments[i].point(u)

    def deriv(self, s: float, order: int = 1) -> np.ndarray:
        i, u = self._locate(s)
        return self.segments[i].deriv(u, order)

    def tangent(self, s: float) -> np.ndarray:
        return unit(self.deriv(s))

    def junction_residuals(self) -> tuple[float, float]:
        """Max first/second derivative mismatch over all junctions."""
        r1 = r2 = 0.0
        for a, b in zip(self.segments[:-1], self.segments[1:]):
            r1 = max(r1, float(np.max(np.abs(a.deriv(1.0) - b.deriv(0.0)))))
            r2 = max(r2, float(np.max(np.abs(a.deriv(1.0, 2) - b.deriv(0.0, 2)))))
        return r1, r2

    # -- sampling / projection ----------------------------------------------

    def _table(self, per_segment: int) -> tuple[np.ndarray, ...]:
        """(params, points, cumulative chord length, points in column-major
        order) sampled uniformly in parameter, built once per resolution and
        read-only.  The last copy keeps each coordinate column contiguous
        for the closest-point scan."""
        table = self._tables.get(per_segment)
        if table is None:
            last = self.n_segments - 1
            params = np.concatenate([i + _grid(per_segment, i == last)
                                     for i in range(self.n_segments)])
            pts = np.vstack([seg.samples(per_segment, i == last)
                             for i, seg in enumerate(self.segments)])
            length = np.concatenate([[0.0], np.cumsum(row_norms(np.diff(pts, axis=0)))])
            table = (params, pts, length, np.asfortranarray(pts))
            for a in table:
                a.flags.writeable = False
            self._tables[per_segment] = table
        return table

    def sample(self, per_segment: int = 200) -> tuple[np.ndarray, np.ndarray]:
        """(params, points) sampled uniformly in parameter over the path."""
        params, pts, _, _ = self._table(per_segment)
        return params, pts

    def closest_param(self, p: np.ndarray, per_segment: int = 200) -> float:
        """Parameter of the table sample nearest p, the first of equals.  The
        squared distances are summed column by column as norm(axis=1) sums
        them, and the argmin is taken over their square roots, so ties fall
        as they do on the norms.  The last query is remembered by its value,
        not by the array's identity."""
        p = np.asarray(p, dtype=float)
        key = (p.tobytes(), per_segment)
        if self._closest[0] == key:
            return self._closest[1]
        params, _ = self.sample(per_segment)
        dist = sq_distances(self._tables[per_segment][3], p)
        s = float(params[int(np.argmin(np.sqrt(dist, out=dist)))])
        self._closest = (key, s)
        return s

    def point_ahead(self, s0: float, distance: float) -> tuple[float, np.ndarray]:
        """Parameter and point `distance` of arclength past s0, by the chord
        table at 200 samples per segment; clamped to the path's end."""
        params, _, length, _ = self._table(200)
        s = float(np.interp(np.interp(s0, params, length) + distance, length, params))
        return s, self.point(s)

    # -- deformation --------------------------------------------------------

    def replace_window(self, i_s: int, i_e: int, p_c_new: np.ndarray) -> "PiecewisePath":
        """New path equal to this one outside segments [i_s, i_e); inside, two
        stitched segments through p_c_new.  Boundary derivatives come from the
        old path at the window junctions, so the chain stays C2 in the raw
        segment parameter and retained segments are bit-identical."""
        if not (0 <= i_s < i_e <= self.n_segments):
            raise ValueError("invalid deformation window")
        left = list(self.segments[:i_s])
        right = list(self.segments[i_e:])
        first, last = self.segments[i_s], self.segments[i_e - 1]
        p_s, d_s, dd_s = first.point(0.0), first.deriv(0.0), first.deriv(0.0, 2)
        p_e, d_e, dd_e = last.point(1.0), last.deriv(1.0), last.deriv(1.0, 2)
        mid = stitch_three_point(p_s, np.asarray(p_c_new, dtype=float), p_e,
                                 d_s, dd_s, d_e, dd_e)
        return PiecewisePath(left + mid + right)
