"""Core vector math shared by every navigation law.

Conventions: vectors are float64 numpy arrays, angles in radians, SI units.
All functions are pure; nothing in here mutates its arguments.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

EPS = 1e-12

X3 = np.array([1.0, 0.0, 0.0])
Y3 = np.array([0.0, 1.0, 0.0])
Z3 = np.array([0.0, 0.0, 1.0])
E3 = Z3


def norm(v) -> float:
    """|v| with the bits of np.linalg.norm(v): numpy's own body for ord=None,
    axis=None (ravel, the BLAS dot, a correctly rounded sqrt) without its
    dispatch.  Like np.linalg.norm it depends on the host's BLAS kernel;
    norm3 does not."""
    x = np.asarray(v, dtype=float).ravel(order="K")
    return math.sqrt(x.dot(x))


def cross3(u, v) -> np.ndarray:
    """u x v of two 3-vectors from the element-wise products and differences
    np.cross forms, on Python floats: the same bits, signed zeros included."""
    (u0, u1, u2), (v0, v1, v2) = (np.asarray(u, dtype=float).tolist(),
                                  np.asarray(v, dtype=float).tolist())
    return np.array([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize v; raises on (near-)zero input."""
    n = norm(v)
    if n < EPS:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def unit_or_zero(v: np.ndarray) -> np.ndarray:
    n = norm(v)
    if n < EPS:
        return np.zeros_like(v)
    return v / n


def dot3(u, v) -> float:
    """u . v of two 3-vectors on Python floats, summed left to right.  Unlike
    np.dot, which calls the BLAS kernel OpenBLAS picks for the CPU, it gives
    the same bits on every host."""
    return (float(u[0]) * float(v[0]) + float(u[1]) * float(v[1])
            + float(u[2]) * float(v[2]))


def norm3(v) -> float:
    """|v| of a 3-vector as sqrt(dot3(v, v)), the same bits on every host."""
    return math.sqrt(dot3(v, v))


def _column_sum(d: np.ndarray) -> np.ndarray:
    """d[..., 0] + d[..., 1] + ... summed left to right, as norm(axis=-1) and
    cKDTree sum 2 or 3 columns."""
    s = d[..., 0] + d[..., 1]
    for k in range(2, d.shape[-1]):
        s += d[..., k]
    return s


def sq_distances(a, b) -> np.ndarray:
    """Squared distances between the broadcast 2- or 3-vectors of a and b,
    summed (dx^2 + dy^2) + dz^2, so that their square roots equal
    norm(a - b, axis=-1) bit for bit."""
    d = np.subtract(a, b, dtype=float)
    d *= d
    return _column_sum(d)


def row_norms(x) -> np.ndarray:
    """|row| of each row of the (..., 2) or (..., 3) array x, column by
    column: np.linalg.norm(x, axis=-1) bit for bit, with less dispatch."""
    d = np.multiply(x, x, dtype=float)
    return np.sqrt(_column_sum(d))


def column_norms(*columns) -> np.ndarray:
    """sqrt(c0^2 + c1^2 + ...) of the broadcast column arrays, summed left to
    right: row_norms's bits for the array whose last-axis columns they are."""
    s = columns[0] * columns[0]
    for c in columns[1:]:
        s += c * c
    return np.sqrt(s)


def blas_dots(a, b) -> np.ndarray:
    """a[..., :] . b[..., :] over the broadcast rows of the arrays a and b,
    each by its own BLAS dot: np.vecdot calls the kernel a[i].dot(b[i])
    calls, so every row has that dot's bits, where a column sum or einsum
    rounds differently on a share of rows."""
    return np.vecdot(a, b)


def blas_norms(x) -> np.ndarray:
    """|row| of each row of the array x by blas_dots: norm(x[i])'s bits,
    where row_norms gives norm(x, axis=-1)'s."""
    return np.sqrt(blas_dots(x, x))


def blas_matvecs(m, v) -> np.ndarray:
    """m[i] @ v[i] for the broadcast stacks of (n, k) matrices m and
    k-vectors v: one BLAS gemv per matrix, the call each m[i] @ v[i] makes."""
    return np.matmul(m, v[..., :, None])[..., 0]


def sub_columns(a, b) -> np.ndarray:
    """a - b for arrays that broadcast to (..., k), as a fresh C-contiguous
    array.  A large one is formed one last-axis column at a time: numpy
    runs a broadcast over a 2- or 3-long last axis with inner loops that
    short, several times slower."""
    shape = np.broadcast(a, b).shape
    if math.prod(shape[:-1]) < 64:
        return a - b
    out = np.empty(shape)
    for j in range(shape[-1]):
        np.subtract(a[..., j], b[..., j], out=out[..., j])
    return out


def matmul_lr(x, m) -> np.ndarray:
    """x @ m for x of shape (..., k) and m of shape (k, l), as element-wise
    products summed left to right over k.  numpy's element-wise `*` and `+`
    round alike on every host, where matmul's BLAS kernel does not."""
    x, m = np.asarray(x, dtype=float), np.asarray(m, dtype=float)
    out = x[..., :1] * m[0]
    for k in range(1, len(m)):
        out = out + x[..., k:k + 1] * m[k]
    return out


def pairwise(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Differences diff[i, j] = p[j] - p[i] of the rows of p, shape (n, n, m),
    and their norms, shape (n, n)."""
    diff = p[None, :, :] - p[:, None, :]
    return diff, row_norms(diff)


def min_pair_distance(d: np.ndarray) -> float:
    """Smallest off-diagonal entry of the (n, n) pairwise distances d, which
    it leaves as they are; +inf for n < 2."""
    if len(d) < 2:
        return float("inf")
    return float(np.where(np.eye(len(d), dtype=bool), np.inf, d).min())


_TWO_PI = 2.0 * np.pi


def wrap_angle(a):
    """Wrap angle(s) to (-pi, pi].  A float takes Python's float modulo,
    which rounds like np.mod (same sign rule, same signed zeros)."""
    if isinstance(a, float):
        return float(-(((-a) + np.pi) % _TWO_PI - np.pi))
    w = -(np.mod(-np.asarray(a, dtype=float) + np.pi, 2.0 * np.pi) - np.pi)
    return float(w) if np.isscalar(a) or np.ndim(a) == 0 else w


def angle_diff(a, b):
    """Shortest-arc difference a - b, wrapped to (-pi, pi]."""
    return wrap_angle(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Unsigned angle between two vectors in [0, pi]."""
    c = float(np.dot(u, v)) / (norm(u) * norm(v))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def chi(beta: float, gamma: float, delta: float) -> float:
    """Piecewise-linear saturation: gamma*beta inside |beta| <= delta, clipped
    at delta*gamma outside.  Odd and bounded by delta*gamma."""
    if gamma <= 0.0 or delta <= 0.0:
        raise ValueError("chi requires gamma > 0 and delta > 0")
    if abs(beta) <= delta:
        return gamma * beta
    return delta * gamma * float(np.sign(beta))


def smooth_sgn(x, mu: float = 10.0):
    """tanh(mu*x): smooth stand-in for sgn in the sliding-mode laws."""
    return np.tanh(mu * np.asarray(x, dtype=float)) if np.ndim(x) else float(np.tanh(mu * x))


def skew(v: np.ndarray) -> np.ndarray:
    """3x3 matrix [v]_x with [v]_x w = v x w."""
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def vee(m: np.ndarray) -> np.ndarray:
    """Inverse of skew for a skew-symmetric 3x3 matrix."""
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def rodrigues_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix about a unit axis by `angle` (right-hand rule):
    cos(a) I + sin(a) [n]_x + (1 - cos(a)) n n^T."""
    n = np.asarray(axis, dtype=float)
    nn = norm(n)
    if abs(nn - 1.0) > 1e-3:
        raise ValueError(f"rotation axis must be unit length, got |axis|={nn:.6f}")
    if abs(nn - 1.0) > 1e-9:
        warnings.warn(f"rotation axis off unit by {abs(nn - 1.0):.2e}; normalizing",
                      stacklevel=2)
    n = n / nn
    c, s = np.cos(angle), np.sin(angle)
    return c * np.eye(3) + s * skew(n) + (1.0 - c) * np.outer(n, n)


def rodrigues_rotate(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotate v about `axis` by `angle`.  Norm-preserving to 1e-9."""
    return rodrigues_matrix(axis, angle) @ np.asarray(v, dtype=float)


def steer_map(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Unit vector perpendicular to the unit vector w1, in span{w1, w2},
    pointing toward w2.  Zero when w2 is parallel to w1 (or zero)."""
    w1 = np.asarray(w1, dtype=float)
    if abs(norm(w1) - 1.0) > 1e-6:
        raise ValueError("steer_map: w1 must be unit length")
    f = np.asarray(w2, dtype=float) - float(np.dot(w1, w2)) * w1
    n = norm(f)
    if n < 1e-9:
        return np.zeros_like(f)
    return f / n


def orthonormalize(r: np.ndarray) -> np.ndarray:
    """Project a nearly-orthonormal 3x3 matrix back onto SO(3)
    (modified Gram-Schmidt on columns, right-handed)."""
    c0 = unit(r[:, 0])
    c1 = r[:, 1] - np.dot(c0, r[:, 1]) * c0
    c1 = unit(c1)
    c2 = cross3(c0, c1)
    return np.column_stack((c0, c1, c2))


def heading_from_angles(beta: float, alpha: float) -> np.ndarray:
    """Unit heading from azimuth beta and flight-path angle alpha."""
    ca = np.cos(alpha)
    return np.array([np.cos(beta) * ca, np.sin(beta) * ca, np.sin(alpha)])


def perpendicular_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Any two unit vectors completing `n` (unit) to a right-handed frame."""
    ref = X3 if abs(n[0]) < 0.9 else Y3
    e1 = unit(cross3(n, ref))
    e2 = cross3(n, e1)
    return e1, e2

