"""Property tests of the swarm kernels against plain references written
here: the nearest-first Voronoi clipping against an all-pairs clip and, bit
for bit, against the same clips with no early stop; the coverage path's
float arithmetic, bit for bit, against the element-wise sums it promises,
the coverage partition against the array form it replaced, and the float
sums against numpy's own summation order;
the batched null-space blend against one explicit projector product per
agent, and one flocking tick against a per-agent loop over the force
helpers; the tabled path lookahead against a dense chord sum; and the
one-vector helpers `geom.norm`, `geom.cross3` and `geom.row_norms`, bit for
bit, against the numpy calls they replace."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aeronav import flocking
from aeronav.bezier import PiecewisePath
from aeronav.coverage import (BarrierFrame, CoverageGains, _pairwise_sum, _Partition,
                              cell_moments, clip_halfplane, coverage_control,
                              polygon_area, voronoi_cells)
from aeronav.flocking import (FlockParams, FlockSim, goal_forces, heading_angles,
                              neighbor_lists, nsb_blend, obstacle_force,
                              spacing_forces)
from aeronav.geom import (blas_dots, blas_matvecs, blas_norms, column_norms, cross3,
                          matmul_lr, norm, pairwise, row_norms, sub_columns, wrap_angle)
from aeronav.plants import flock_direction
from aeronav.world import Sphere, World

SETTINGS = settings(max_examples=150, deadline=None)
BOX = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 6.0], [0.0, 6.0]])
HEXAGON = np.array([[2.0, 0.0], [8.0, 0.0], [10.0, 3.0], [8.0, 6.0], [2.0, 6.0],
                    [0.0, 3.0]])

coord = st.floats(-1.0, 11.0, allow_nan=False)
scattered = st.lists(st.tuples(coord, coord), min_size=1, max_size=14)


@st.composite
def collinear(draw):
    """Generators on one line, some of them outside the boundary."""
    start = np.array(draw(st.tuples(coord, coord)))
    angle = draw(st.floats(0.0, np.pi))
    ts = draw(st.lists(st.floats(-12.0, 12.0), min_size=2, max_size=10))
    return [tuple(start + t * np.array([np.cos(angle), np.sin(angle)])) for t in ts]


generators = st.one_of(scattered, collinear()).map(lambda pts: np.array(pts, dtype=float))


def _distinct(g):
    d = np.linalg.norm(g[:, None] - g[None], axis=2)
    return bool(np.all(d[np.triu_indices(len(g), 1)] > 1e-3))


def _clip_reference(poly, a, b):
    """Sutherland-Hodgman, one vertex at a time."""
    out = []
    for k in range(len(poly)):
        cur, nxt = poly[k], poly[(k + 1) % len(poly)]
        c_in, n_in = a @ cur <= b + 1e-12, a @ nxt <= b + 1e-12
        if c_in:
            out.append(cur)
        if c_in != n_in and abs(a @ (nxt - cur)) > 1e-15:
            t = (b - a @ cur) / (a @ (nxt - cur))
            out.append(cur + np.clip(t, 0.0, 1.0) * (nxt - cur))
    return np.array(out) if out else np.empty((0, 2))


def _cells_reference(g, boundary, mask=None):
    """Every cell clipped by every other (in-range) generator, in index order."""
    cells = []
    for i in range(len(g)):
        poly = boundary
        for j in range(len(g)):
            if j != i and (mask is None or mask[i, j]) and len(poly):
                poly = _clip_reference(poly, g[j] - g[i], 0.5 * (g[j] @ g[j] - g[i] @ g[i]))
        cells.append(poly)
    return cells


def polygon_moments(polys):
    """Exact shoelace integrals over each polygon (ordered vertices, at least
    three each) in array form: area (k,), first moment (k, 2) and second
    moment (k,), each summed by np.add.reduceat."""
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


def _moments(cell):
    if len(cell) < 3:
        return np.zeros(4)
    area, first, second = polygon_moments([cell])
    return np.array([area[0], *first[0], second[0]])


@SETTINGS
@given(g=generators, boundary=st.sampled_from([BOX, HEXAGON]),
       r_c=st.one_of(st.none(), st.floats(0.5, 8.0)))
def test_voronoi_cells_equal_all_pairs_clip(g, boundary, r_c):
    assume(_distinct(g))
    mask = None if r_c is None else np.linalg.norm(g[:, None] - g[None], axis=2) <= r_c
    got = voronoi_cells(g, boundary, mask)
    want = _cells_reference(g, boundary, mask)
    for cell, ref in zip(got, want, strict=True):
        assert np.allclose(_moments(cell), _moments(ref), rtol=0.0, atol=1e-9)


def _clip_by_sides(poly, s):
    """Sutherland-Hodgman of poly, deciding by the given side values s."""
    inside = s <= 1e-12
    if inside.all():
        return poly
    out = []
    for k in range(-len(poly), 0):
        if inside[k]:
            out.append(poly[k])
        if inside[k] != inside[k + 1] and abs(s[k] - s[k + 1]) > 1e-15:
            t = min(max(s[k] / (s[k] - s[k + 1]), 0.0), 1.0)
            out.append(poly[k] + t * (poly[k + 1] - poly[k]))
    return np.array(out) if out else np.empty((0, 2))


def _cells_nearest_first(g, boundary, mask=None):
    """Every cell clipped with every other (in-range) generator's bisector,
    nearest first in stable order, one half-plane at a time with no early
    stop, each vertex decided by numpy's element-wise x * a0 + y * a1 - b."""
    _, d = pairwise(g)
    half_sq = 0.5 * np.einsum("ij,ij->i", g, g)
    cells = []
    for i in range(len(g)):
        poly = boundary
        for j in np.argsort(d[i], kind="stable"):
            if j != i and (mask is None or mask[i, j]) and len(poly):
                a, b = g[j] - g[i], half_sq[j] - half_sq[i]
                poly = _clip_by_sides(poly, poly[:, 0] * a[0] + poly[:, 1] * a[1] - b)
        cells.append(poly)
    return cells


@SETTINGS
@given(g=generators, boundary=st.sampled_from([BOX, HEXAGON]),
       r_c=st.one_of(st.none(), st.floats(0.5, 8.0)))
def test_voronoi_cells_equal_nearest_first_clips_bit_for_bit(g, boundary, r_c):
    assume(_distinct(g))
    mask = None if r_c is None else np.linalg.norm(g[:, None] - g[None], axis=2) <= r_c
    got = voronoi_cells(g, boundary, mask)
    want = _cells_nearest_first(g, boundary, mask)
    assert len(got) == len(want)
    assert all(np.array_equal(c, w) for c, w in zip(got, want))


@SETTINGS
@given(g=generators, boundary=st.sampled_from([BOX, HEXAGON]))
def test_voronoi_cells_tile_the_boundary(g, boundary):
    assume(_distinct(g))
    cells = voronoi_cells(g, boundary)
    assert sum(polygon_area(c) for c in cells) == pytest.approx(polygon_area(boundary),
                                                                rel=1e-9)


finite = st.floats(-20.0, 20.0)


@SETTINGS
@given(poly=st.sampled_from([BOX, HEXAGON, BOX[::-1] - 5.0]),
       a=arrays(float, 2, elements=finite), b=finite, g=arrays(float, 2, elements=finite))
def test_clip_sides_are_element_wise_sums(poly, a, b, g):
    """The side values that decide a clip are x * a0 + y * a1 - b, rounded
    step by step as numpy's element-wise arithmetic rounds them, and the
    early stop, from any g, skips only a half-plane that does not cut."""
    got = clip_halfplane(poly, np.array([[a[0], a[1], b]]), g)
    want = _clip_by_sides(poly, poly[:, 0] * a[0] + poly[:, 1] * a[1] - b)
    assert (got is poly) == (want is poly)
    assert np.array_equal(got, want)


def _moment_about(area, first, second, about):
    """Integral of |q - about|^2 from the moments about the origin, arrays."""
    return (second - 2.0 * np.sum(first * about, axis=-1)
            + np.sum(about * about, axis=-1) * area)


def _to_world(frame, local):
    """World points of in-plane frame coordinates (n, 2), in array form."""
    return frame.origin + matmul_lr(local, np.stack((frame.a1, frame.a2)))


def _partition_reference(q, active, frame, r_c):
    """The coverage partition in array form: cells, world centroids, cost
    and events from `polygon_moments`, `_to_world` and np.sum."""
    idx = np.nonzero(active)[0]
    proj = frame.project(q[idx])
    mask = None if r_c is None else pairwise(q[idx])[1] <= r_c
    cells = _cells_nearest_first(proj, frame.boundary_local, mask)
    events = []
    if mask is not None:
        half_sq = 0.5 * (proj[:, 0] * proj[:, 0] + proj[:, 1] * proj[:, 1])
        for row, cell in enumerate(cells):
            far = np.nonzero(~mask[row])[0]
            if len(cell) < 3 or len(far) == 0:
                continue
            cut = np.any(matmul_lr(cell, (proj[far] - proj[row]).T)
                         > half_sq[far] - half_sq[row] + 1e-9, axis=0)
            events.extend(("comm_range_violation",
                           {"agent": int(idx[row]), "neighbor": int(idx[j])})
                          for j in far[cut])
    cents = np.full(q.shape, np.nan)
    cents[idx] = q[idx]
    full = np.array([len(cell) >= 3 for cell in cells], dtype=bool)
    events.extend(("empty_cell", {"agent": int(i)}) for i in idx[~full])
    cost = 0.0
    if full.any():
        area, first, second = polygon_moments([c for c, ok in zip(cells, full) if ok])
        cents[idx[full]] = _to_world(frame, first / area[:, None])
        cost = float(np.sum(_moment_about(area, first, second, proj[full])))
    return cells, cents, cost, events


@st.composite
def coverage_states(draw):
    """Agents around a 10 m x 6 m plane, some far outside it (empty cells),
    some removed, the plane tilted out of the xy-plane."""
    n = draw(st.integers(1, 12))
    q = draw(arrays(float, (n, 3), elements=st.floats(-6.0, 16.0)))
    active = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    active[draw(st.integers(0, n - 1))] = True
    angles = draw(arrays(float, 2, elements=st.floats(-3.0, 3.0)))
    ca, sa, cb, sb = (math.cos(angles[0]), math.sin(angles[0]),
                      math.cos(angles[1]), math.sin(angles[1]))
    u, v = np.array([ca * cb, sa * cb, sb]), np.array([-sa, ca, 0.0])
    shift = draw(arrays(float, 3, elements=st.floats(-5.0, 5.0)))
    frame = BarrierFrame.from_vertices(shift + np.array([0 * u, 10 * u, 10 * u + 6 * v, 6 * v]))
    r_c = draw(st.one_of(st.none(), st.floats(0.5, 12.0)))
    return q, active, frame, r_c


@SETTINGS
@given(state=coverage_states())
def test_partition_equals_the_array_form_bit_for_bit(state):
    q, active, frame, r_c = state
    proj = frame.project(q[active])
    assume(_distinct(proj) if len(proj) > 1 else True)
    try:
        want = _partition_reference(q, active, frame, r_c)
    except ValueError:
        with pytest.raises(ValueError):
            _Partition.of(q, active, frame, r_c)
        return
    got = _Partition.of(q, active, frame, r_c)
    cells, cents, cost, events = want
    assert len(got.cells) == len(cells)
    assert all(np.array_equal(c, w) for c, w in zip(got.cells, cells))
    assert _bits(got.centroids) == _bits(cents)
    assert _bits(got.cost) == _bits(cost)
    assert got.events == events


def _sums_reference(terms):
    """A segment summed by np.add.reduceat and a 1-D array by np.sum."""
    x = np.array(terms, dtype=float)
    return np.add.reduceat(x, [0])[0], np.sum(x)


@pytest.mark.parametrize("n", [*range(1, 41), 129, 300])
def test_float_sums_follow_numpy_summation_order(n):
    """The float moments and cost copy numpy's pairwise summation; a numpy
    that sums in another order fails here, by name, before it moves the
    coverage digests.  Mixed magnitudes and signs make the order show: a
    left-to-right sum differs on many of these runs.  129 and 300 terms
    reach the halving above 128."""
    rng = np.random.default_rng(n)
    differ = np.zeros(2, dtype=int)
    for _ in range(200):
        terms = (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)).tolist()
        if rng.random() < 0.1:
            terms[rng.integers(n)] = -0.0
        segment, whole = _sums_reference(terms)
        assert _bits(terms[0] + _pairwise_sum(terms[1:])) == _bits(segment)
        assert _bits(0.0 + _pairwise_sum(terms)) == _bits(whole)
        left = 0.0
        for t in terms:
            left += t
        differ += (left != segment, left != whole)
    # np.sum adds left to right below nine terms; reduceat's first term
    # comes last from three
    assert n < 3 or differ[0] > 0
    assert n < 9 or differ[1] > 0
    assert _bits(0.0 + _pairwise_sum([-0.0] * n)) == _bits(np.sum(np.full(n, -0.0)))
    assert _bits(-0.0 + _pairwise_sum([-0.0] * (n - 1))) == _bits(
        np.add.reduceat(np.full(n, -0.0), [0])[0])


@SETTINGS
@given(poly=arrays(float, st.tuples(st.integers(3, 20), st.just(2)),
                   elements=st.floats(-50.0, 50.0)))
def test_cell_moments_equal_reduceat_moments_bit_for_bit(poly):
    """Up to 20 vertices, so that the sums past eight terms are checked too."""
    area, first, second = polygon_moments([poly])
    assert _bits(cell_moments(poly.tolist())) == _bits([area[0], *first[0], second[0]])


vec3 = arrays(float, 3, elements=st.floats(-50.0, 50.0))


@SETTINGS
@given(p=arrays(float, st.tuples(st.integers(1, 6), st.just(3)),
                elements=st.floats(-50.0, 50.0)),
       c=vec3, k=arrays(float, 3, elements=st.floats(0.1, 5.0)))
def test_coverage_control_is_math_tanh_times_gain(p, c, k):
    u = coverage_control(p, c, CoverageGains(k=np.diag(k)))
    e = c - p
    assert u.shape == p.shape
    for row in range(len(p)):
        for col in range(3):
            assert u[row, col] == math.tanh(float(e[row, col])) * float(k[col])


@SETTINGS
@given(shift=vec3, angles=arrays(float, 2, elements=st.floats(-3.0, 3.0)),
       pts=arrays(float, (4, 3), elements=st.floats(-50.0, 50.0)))
def test_frame_maps_are_left_to_right_float_sums(shift, angles, pts):
    """project and the array form of the map to the world equal the
    products of the frame's axes summed left to right on Python floats."""
    ca, sa, cb, sb = (math.cos(angles[0]), math.sin(angles[0]),
                      math.cos(angles[1]), math.sin(angles[1]))
    u, v = np.array([ca * cb, sa * cb, sb]), np.array([-sa, ca, 0.0])
    frame = BarrierFrame.from_vertices(shift + np.array([0 * u, 4 * u, 4 * u + 3 * v, 3 * v]))
    o, axes = frame.origin.tolist(), (frame.a1.tolist(), frame.a2.tolist())
    proj, world = frame.project(pts), _to_world(frame, pts[:, :2])
    for row, (x, y, z) in enumerate(pts.tolist()):
        for col, a in enumerate(axes):
            assert proj[row, col] == (x - o[0]) * a[0] + (y - o[1]) * a[1] + (z - o[2]) * a[2]
        for r in range(3):
            assert world[row, r] == o[r] + (x * axes[0][r] + y * axes[1][r])
    assert np.array_equal(frame.project(pts[0]), proj[0])


def _projector(f):
    n = np.linalg.norm(f)
    if n < 1e-12:
        return np.eye(len(f))
    return np.eye(len(f)) - np.outer(f / n, f / n)


@SETTINGS
@given(st.tuples(st.integers(1, 8), st.integers(2, 3)).flatmap(lambda shape: arrays(
    float, (3, *shape), elements=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)))))
def test_nsb_blend_rows_equal_projector_form(forces):
    f1, f2, f3 = forces
    got = nsb_blend(f1, f2, f3)
    for k in range(len(f1)):
        n1 = _projector(f1[k])
        want = f1[k] + n1 @ f2[k] + n1 @ _projector(f2[k]) @ f3[k]
        assert np.allclose(got[k], want, rtol=0.0, atol=1e-12)
        assert np.allclose(nsb_blend(f1[k], f2[k], f3[k]), want, rtol=0.0, atol=1e-12)


@SETTINGS
@given(st.integers(1, 8).flatmap(lambda n: arrays(
    float, (2, n, 3), elements=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0)))))
def test_blend_with_a_zero_first_force_is_the_spacing_goal_level(forces):
    """nsb_blend(0, f2, f3) is (0.0 + f2) + N2 f3 bit for bit, signed zeros
    included: N1 is exactly I, and I f2 differs from f2 only in the signs of
    its zeros, which adding 0.0 clears.  The tick forms the blend this way
    when no agent is inside the obstacle shell."""
    f2, f3 = forces
    got = nsb_blend(np.zeros_like(f2), f2, f3)
    for k in range(len(f2)):
        want = (0.0 + f2[k]) + _projector(f2[k]) @ f3[k]
        assert _bits(got[k]) == _bits(want)
        assert _bits(nsb_blend(np.zeros(3), f2[k], f3[k])) == _bits(want)


def test_tick_controls_equal_per_agent_loop():
    """The array tick's controls equal a per-agent loop over the one-agent
    forms bit for bit; the obstacle examples take ticks with agents on both
    sides of the critical shell, and ticks with none inside."""
    inside_counts = []

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           nearest2=st.booleans(), obstacle=st.booleans())
    def check(seed, n, nearest2, obstacle):
        rng = np.random.default_rng(seed)
        params = FlockParams(r_c=12.0, goal=np.array([30.0, 30.0, 30.0]),
                             alpha_neighbors="nearest2" if nearest2 else "all")
        world = World([Sphere(np.array([9.0, 9.0, 9.0]), 2.0)]) if obstacle else None
        q0 = rng.uniform(0.0, 18.0, size=(n, 3))
        assume(_distinct(q0))
        sim = FlockSim(q0, rng.uniform(-1.0, 1.0, size=(n, 2)), params, world=world, rng=rng)
        for _ in range(3):
            sim.tick()
        snap, p, dt, ema = sim.snapshot, sim.params, sim.control_dt, sim._ema
        th_prev, dot_prev, ddot_prev = sim._theta_f, sim._theta_f_dot, sim._theta_f_ddot
        within = np.zeros((n, n), dtype=bool)
        for i, nb in enumerate(neighbor_lists(pairwise(snap.q)[1], p.r_c)):
            within[i, nb] = True
        f_s, f_g = spacing_forces(*pairwise(snap.q), within, p), goal_forces(snap.q, p)
        want, inside = np.empty((n, 3)), 0
        for i in range(n):
            f_o = np.zeros(3)
            if world is not None:
                d_o, closest, _ = world.nearest_obstacle(snap.q[i], sim.t)
                f_o = obstacle_force(snap.q[i], d_o, closest, p)
                inside += not d_o > p.big_c
            f_t = nsb_blend(f_o, f_s[i], f_g[i])
            th_f = heading_angles(f_t) if np.linalg.norm(f_t) > 1e-9 else th_prev[i]
            d1_raw = wrap_angle(th_f - th_prev[i]) / dt
            d1 = (1 - ema) * dot_prev[i] + ema * d1_raw
            d2_raw = (d1 - dot_prev[i]) / dt
            d2 = np.clip((1 - ema) * ddot_prev[i] + ema * d2_raw,
                         -flocking.THETA_DDOT_CAP, flocking.THETA_DDOT_CAP)
            a, alpha = flocking.flocking_control(snap.nu[i, 0], snap.theta[i], snap.nu[i, 1:],
                                                 f_t, flock_direction(snap.theta[i]), th_f,
                                                 d1, d2, p)
            want[i] = [a, *alpha]
        taus = []

        def capture(q, th, nu, tau, h, steps):
            assert steps == 10
            taus.append(tau)
            return q, th, nu

        stepper, flocking.step_flock_batch = flocking.step_flock_batch, capture
        try:
            sim.tick()
        finally:
            flocking.step_flock_batch = stepper
        assert np.array_equal(taus[0], want)
        if obstacle:
            inside_counts.append((inside, n))

    check()
    assert any(0 < k < m for k, m in inside_counts)
    assert any(k == 0 for k, _ in inside_counts)


@st.composite
def waypoint_paths(draw):
    """C2 paths through 2-6 random waypoints in 2D or 3D, consecutive
    waypoints at least 0.5 m apart."""
    dim = draw(st.sampled_from([2, 3]))
    w = draw(arrays(float, (draw(st.integers(2, 6)), dim),
                    elements=st.floats(-10.0, 10.0)))
    assume(np.all(np.linalg.norm(np.diff(w, axis=0), axis=1) > 0.5))
    return PiecewisePath.from_waypoints(w)


def _dense_length(path, s0, s1, per_segment=20_000):
    """Chord sum from s0 to s1 at per_segment samples per unit parameter."""
    u = np.linspace(s0, s1, max(2, int(np.ceil((s1 - s0) * per_segment)) + 1))
    i = np.minimum(u.astype(int), path.n_segments - 1)
    pts = np.empty((len(u), path.segments[0].control.shape[1]))
    for k in np.unique(i):
        pts[i == k] = path.segments[k].point(u[i == k] - k)
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


@SETTINGS
@given(path=waypoint_paths(), frac=st.floats(0.0, 1.0),
       d=st.lists(st.floats(0.01, 60.0), min_size=2, max_size=2))
def test_point_ahead_tracks_dense_arclength(path, frac, d):
    s0 = frac * path.n_segments
    d1, d2 = sorted(d)
    s1, p1 = path.point_ahead(s0, d1)
    s2, p2 = path.point_ahead(s0, d2)
    assert np.array_equal(p1, path.point(s1)) and np.array_equal(p2, path.point(s2))
    assert s0 - 1e-12 <= s1 <= s2 <= path.n_segments
    # each of the two table lookups interpolates arclength linearly over a
    # parameter step h = 1/200: error at most h^2/8 max|P''|, and the
    # convex hull of the second-derivative control points bounds |P''|
    d2p = max(20.0 * np.max(np.linalg.norm(np.diff(seg.control, 2, axis=0), axis=1))
              for seg in path.segments)
    slack = 2 * (1 / 200) ** 2 / 8 * d2p
    if d2 > _dense_length(path, s0, path.n_segments) * (1 + 1e-4) + slack:
        assert s2 == path.n_segments
        assert np.array_equal(p2, path.point(path.n_segments))
    for d_k, s_k in ((d1, s1), (d2, s2)):
        if s_k < path.n_segments:
            assert abs(_dense_length(path, s0, s_k) - d_k) <= 1e-4 * d_k + slack


# magnitudes from 1e-300 to 1e300, zeros of both signs, and everything
# between, so the dot product underflows and overflows as well
wide = st.one_of(st.floats(-1e300, 1e300, allow_nan=False),
                 st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]),
                 st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0),
                           st.integers(-300, 299)))


@st.composite
def vectors(draw, dims=(2, 3)):
    """A 2- or 3-vector, contiguous or as a strided view of a larger array.
    Half are scaled normal draws: their full mantissas are where sums of
    squares round differently."""
    dim = draw(st.sampled_from(dims))
    stride = draw(st.integers(1, 3))
    if draw(st.booleans()):
        base = draw(arrays(float, dim * stride, elements=wide))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        base = rng.standard_normal(dim * stride) * 10.0 ** draw(st.integers(-300, 299))
    return base[::stride]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=400, deadline=None)
@given(v=vectors())
def test_norm_is_numpy_norm_bit_for_bit(v):
    with np.errstate(over="ignore", under="ignore"):
        assert _bits(norm(v)) == _bits(np.linalg.norm(v))


@settings(max_examples=400, deadline=None)
@given(u=vectors((3,)), v=vectors((3,)))
def test_cross3_is_numpy_cross_bit_for_bit(u, v):
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        want = np.cross(u, v)
        got = cross3(u, v)
    # array_equal treats nan as unequal and -0.0 as 0.0: compare the bytes
    assert got.shape == want.shape and _bits(got) == _bits(want)


@SETTINGS
@given(x=st.tuples(st.integers(0, 40), st.integers(2, 3)).flatmap(
    lambda shape: arrays(float, shape, elements=wide)))
def test_row_norms_is_numpy_row_norm_bit_for_bit(x):
    with np.errstate(over="ignore", under="ignore"):
        assert _bits(row_norms(x)) == _bits(np.linalg.norm(x, axis=-1))


@st.composite
def row_arrays(draw, n, k):
    """An (n, k) array, contiguous or a view strided in its rows, its
    columns or both; half are scaled normal draws."""
    rs, cs = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    if draw(st.booleans()):
        base = draw(arrays(float, (n * rs, k * cs), elements=wide))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        base = rng.standard_normal((n * rs, k * cs)) * 10.0 ** draw(st.integers(-300, 299))
    return base[::rs, ::cs]


row_pairs = st.tuples(st.integers(1, 30), st.sampled_from([2, 3])).flatmap(
    lambda nk: st.tuples(row_arrays(*nk), row_arrays(*nk)))


@settings(max_examples=300, deadline=None)
@given(ab=row_pairs)
def test_blas_dots_and_norms_are_the_per_row_dot_bit_for_bit(ab):
    """One BLAS dot per row: a[i].dot(b[i]) and norm(a[i]) to the bit, on
    2 and 3 columns, strided views, magnitudes 1e-300 to 1e300 and signed
    zeros; also with b broadcast over a stack of a's rows."""
    a, b = ab
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        assert _bits(blas_dots(a, b)) == _bits([a[i].dot(b[i]) for i in range(len(a))])
        assert _bits(blas_norms(a)) == _bits([norm(a[i]) for i in range(len(a))])
        stack, rows = np.stack([a, a[::-1]]), np.stack([b[0], b[-1]])
        want = [[stack[i, j].dot(rows[i]) for j in range(len(a))] for i in range(2)]
        assert _bits(blas_dots(stack, rows[:, None, :])) == _bits(want)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), n=st.integers(1, 40),
       k=st.sampled_from([2, 3]), scale=st.integers(-100, 100))
def test_blas_matvecs_are_the_per_matrix_gemv_bit_for_bit(seed, m, n, k, scale):
    """A stack of (n, k) @ (k,) products equals each gemv on its own, also
    with the matrix broadcast over the vectors."""
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((m, n, k)) * 10.0 ** scale
    vecs = rng.standard_normal((m, k))
    assert _bits(blas_matvecs(mats, vecs)) == _bits([mats[i] @ vecs[i] for i in range(m)])
    assert _bits(blas_matvecs(mats[0], vecs)) == _bits([mats[0] @ v for v in vecs])


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), n=st.integers(0, 30),
       k=st.sampled_from([2, 3]))
def test_column_forms_equal_the_broadcast_bit_for_bit(seed, m, n, k):
    """sub_columns is the broadcast difference, and column_norms of its
    columns is row_norms of it."""
    rng = np.random.default_rng(seed)
    pts, centres = rng.standard_normal((1, n, k)), rng.standard_normal((m, 1, k))
    pts[..., 0] = -0.0
    diff = sub_columns(pts, centres)
    assert diff.flags.c_contiguous and _bits(diff) == _bits(pts - centres)
    assert _bits(column_norms(*(diff[..., j] for j in range(k)))) == _bits(row_norms(diff))
