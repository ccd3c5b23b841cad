import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from aeronav.geom import perpendicular_basis, sq_distances, unit
from aeronav.tunnels import (_POLYLINES, GRID_CELL, CellGrid,
                             TunnelGenerationError, _check_axis,
                             _parallel_frames, generate_tunnel, k_nearest)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_straight_cylinder_points_at_radius():
    tc = generate_tunnel("straight", radius=1.5, length=10.0)
    # all points at distance R from the x-axis
    r = np.hypot(tc.points[:, 1], tc.points[:, 2])
    assert np.allclose(r, 1.5, atol=1e-9)


def test_density_at_least_400_per_meter():
    tc = generate_tunnel("straight", radius=2.0, length=10.0)
    assert len(tc.points) >= 400 * 10.0


def test_torus_curvilinear_wraps():
    tc = generate_tunnel("torus", radius=1.0, length=40.0)
    assert tc.closed
    L = tc.length
    # a point near the seam maps near 0 (mod L)
    q = tc.curvilinear(tc.axis[0] + np.array([0.0, 0.0, 0.5]))
    assert q == pytest.approx(0.0, abs=0.2) or q == pytest.approx(L, abs=0.2)


def test_helix_wall_to_axis_distance_oracle():
    """Min wall-to-axis distance equals R within sampling tolerance."""
    tc = generate_tunnel("helix", radius=1.5, length=30.0)
    # dense sampling oracle: distance of wall points to the axis polyline
    tree = cKDTree(tc.axis)
    d, _ = tree.query(tc.points)
    assert np.min(d) == pytest.approx(1.5, abs=0.05)


def test_narrowing_radius_profile():
    tc = generate_tunnel("narrowing", radius=1.15, length=6.0, end_radius=0.75)
    x = tc.points[:, 0]
    r = np.hypot(tc.points[:, 1], tc.points[:, 2])
    near_start = r[x < 0.2]
    near_end = r[x > 5.8]
    assert np.median(near_start) > np.median(near_end)


def test_all_stock_shapes_generate():
    for shape in ("straight", "smooth-bend", "torus", "helix", "sharp-bends",
                  "s-shape", "rectangular", "pipeline"):
        tc = generate_tunnel(shape, radius=1.5, length=25.0, density=400)
        assert len(tc.points) > 1000
        assert tc.length > 5.0


def test_unknown_shape_rejected():
    with pytest.raises(TunnelGenerationError):
        generate_tunnel("klein-bottle")


def test_bad_params_rejected():
    with pytest.raises(TunnelGenerationError):
        generate_tunnel("straight", radius=-1.0)


def test_xyz_roundtrip(tmp_path):
    tc = generate_tunnel("straight", radius=1.0, length=5.0, density=400)
    path = tmp_path / "cloud.xyz"
    tc.save_xyz(path)
    loaded = np.loadtxt(path)
    assert loaded.shape == tc.points.shape
    assert np.allclose(loaded, tc.points, atol=1e-5)


def test_misspelt_option_raises():
    """An option the generator does not take is an error, not the default
    geometry built silently."""
    with pytest.raises(TypeError, match="helix_radus"):
        generate_tunnel("helix", radius=1.5, helix_radus=3.0)


def test_wall_distance_query():
    tc = generate_tunnel("straight", radius=2.0, length=10.0)
    assert tc.wall_distance(np.array([5.0, 0.0, 0.0])) == pytest.approx(2.0, abs=0.05)


def test_helix_meeting_itself_rejected():
    """Turns 1 m apart in a 1.5 m tube: the axis check rejects it."""
    with pytest.raises(TunnelGenerationError):
        generate_tunnel("helix", radius=1.5, length=30.0, pitch=1.0)


def test_stock_torus_passes_the_axis_check():
    tcfg = json.loads((CONFIGS / "tunnel-b-torus.json").read_text())["tunnel"]
    tc = generate_tunnel(tcfg.pop("shape"), **tcfg)
    assert tc.closed


@st.composite
def smooth_polylines(draw):
    """A line plus a few random sinusoids, sampled finely enough that the
    polyline turns smoothly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(3, 300))
    t = np.linspace(0.0, 1.0, m)[:, None]
    axis = 20.0 * t * unit(rng.normal(size=3))
    for _ in range(draw(st.integers(0, 4))):
        amp, freq, phase = rng.normal(size=3), rng.uniform(0.2, 2.0), rng.uniform(0, 6)
        axis = axis + 2.0 * amp * np.sin(2.0 * np.pi * freq * t + phase)
    return axis


@settings(max_examples=100, deadline=None)
@given(axis=smooth_polylines())
def test_parallel_frames_are_orthonormal(axis):
    tangents, normals, binormals = _parallel_frames(axis)
    assert np.allclose(np.linalg.norm(tangents, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(np.sum(normals * tangents, axis=1))) < 1e-12
    assert np.array_equal(binormals, np.cross(tangents, normals))


# Test-local copies of the per-sample loops the generator used to run; the
# array code must reproduce them bit for bit.

def _loop_smooth_bend_axis(length, ds=0.1):
    run = length * 0.3
    arc_r = length * 0.25
    s_tot = 2 * run + 0.5 * np.pi * arc_r
    n = int(np.ceil(s_tot / ds)) + 1
    axis = np.empty((n, 3))
    for i, s in enumerate(np.linspace(0.0, s_tot, n)):
        if s < run:
            axis[i] = (s, 0.0, 0.0)
        elif s < run + 0.5 * np.pi * arc_r:
            th = (s - run) / arc_r
            axis[i] = (run + arc_r * np.sin(th), arc_r * (1 - np.cos(th)), 0.0)
        else:
            s2 = s - run - 0.5 * np.pi * arc_r
            axis[i] = (run + arc_r, arc_r + s2, 0.0)
    return axis


def _loop_polyline_axis(shape, length, ds=0.1):
    wps = [tuple(f * length for f in wp) for wp in _POLYLINES[shape]]
    pts = [np.asarray(wps[0], dtype=float)]
    for wp in wps[1:]:
        wp = np.asarray(wp, dtype=float)
        seg = wp - pts[-1]
        n = max(1, int(np.ceil(np.linalg.norm(seg) / ds)))
        base = pts[-1]
        for k in range(1, n + 1):
            pts.append(base + seg * (k / n))
    axis = np.asarray(pts)
    for _ in range(12 if shape != "rectangular" else 8):
        axis[1:-1] = 0.5 * axis[1:-1] + 0.25 * (axis[:-2] + axis[2:])
    return axis


def _loop_frames(axis):
    diffs = np.diff(axis, axis=0)
    seglen = np.linalg.norm(diffs, axis=1)
    tangents = np.vstack([diffs / seglen[:, None], diffs[-1:] / seglen[-1]])
    normals = [perpendicular_basis(tangents[0])[0]]
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
    return normals, np.cross(tangents, normals)


def _loop_sweep(axis, radii, density, section):
    normals, binormals = _loop_frames(axis)
    ds = float(np.mean(np.linalg.norm(np.diff(axis, axis=0), axis=1)))
    ring_pts = max(8, int(np.ceil(density * ds)))
    phis = np.linspace(0.0, 2.0 * np.pi, ring_pts, endpoint=False)
    xy = np.empty((ring_pts, 2))
    for k, tt in enumerate(np.linspace(0.0, 4.0, ring_pts, endpoint=False)):
        side, frac = int(tt), tt - int(tt)
        xy[k] = [(-1 + 2 * frac, -1), (1, -1 + 2 * frac),
                 (1 - 2 * frac, 1), (-1, 1 - 2 * frac)][side]
    pts = []
    for i, r_i in enumerate(radii):
        if section == "circle":
            ring = (axis[i][None, :]
                    + r_i * np.cos(phis)[:, None] * normals[i][None, :]
                    + r_i * np.sin(phis)[:, None] * binormals[i][None, :])
        else:
            ring = (axis[i][None, :]
                    + r_i * xy[:, 0:1] * normals[i][None, :]
                    + r_i * xy[:, 1:2] * binormals[i][None, :])
        pts.append(ring)
    return np.vstack(pts)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("tunnel-*.json")),
                         ids=lambda p: p.stem)
def test_stock_clouds_equal_the_per_sample_loops(path):
    tcfg = json.loads(path.read_text())["tunnel"]
    tcfg.pop("noise_sigma", None)
    shape, radius, length = tcfg["shape"], tcfg["radius"], tcfg["length"]
    tc = generate_tunnel(**tcfg)
    if shape == "smooth-bend":
        axis = _loop_smooth_bend_axis(length)
    elif shape in _POLYLINES:
        axis = _loop_polyline_axis(shape, length)
    else:
        axis = tc.axis
    assert np.array_equal(tc.axis, axis)
    if shape == "narrowing":
        r0, r1 = radius, tcfg["end_radius"]
        radii = [float(r0 + (r1 - r0) * s / length) for s in tc.axis_s]
    else:
        radii = [radius] * len(axis)
    section = "square" if shape == "rectangular" else "circle"
    assert np.array_equal(tc.points, _loop_sweep(axis, radii, tcfg["density"], section))


# -- the cell grid against scipy's cKDTree as the oracle ----------------------

# cell faces sit on whole multiples of the edge: draw many coordinates there
coordinate = st.one_of(st.floats(-12.0, 12.0), st.integers(-12, 12).map(float),
                       st.sampled_from([0.5, -0.5, 1.5, -2.25, 1e-9]))
clouds = st.integers(1, 80).flatmap(lambda n: arrays(np.float64, (n, 3), elements=coordinate))
queries = st.lists(st.tuples(*[st.one_of(coordinate, st.floats(-1e3, 1e3))] * 3),
                   min_size=1, max_size=6).map(np.array)
cells = st.sampled_from([0.5, 1.0, 1.5, 2.25, 3.0])
GRID = settings(max_examples=300, deadline=None)


@GRID
@given(cloud=clouds, q=queries, cell=cells)
def test_grid_nearest_distance_equals_ckdtree_bit_for_bit(cloud, q, cell):
    grid, tree = CellGrid(cloud, cell), cKDTree(cloud)
    for p in q:
        assert grid.nearest_distance(p) == tree.query(p)[0]


def test_grid_nearest_distance_of_one_point_and_far_queries():
    grid = CellGrid(np.array([[-3.0, 2.0, 0.0]]), GRID_CELL)
    assert grid.nearest_distance(np.array([-3.0, 2.0, 0.0])) == 0.0
    assert grid.nearest_distance(np.array([997.0, 2.0, 0.0])) == 1000.0
    tc = generate_tunnel("smooth-bend", radius=2.5, length=40.0)
    tree = cKDTree(tc.points)
    for p in [(-500.0, 40.0, 3.0), (12.0, 10.0, -60.0), (1e4, -1e4, 1e4)]:
        assert tc.wall_distance(np.array(p)) == tree.query(p)[0]


@GRID
@given(cloud=clouds, q=st.tuples(*[coordinate] * 3).map(np.array), k=st.integers(1, 12))
def test_k_nearest_matches_ckdtree_query_k(cloud, q, k):
    """The same distances in the same order; cKDTree's indices, with its
    ties broken by (d^2, index), agree except in which of the points tied
    at the k-th distance it keeps; with no tie there, they are its own."""
    got = k_nearest(cloud, q, k)
    d, idx = cKDTree(cloud).query(q, k=min(k, len(cloud)))
    d, idx = np.atleast_1d(d), np.atleast_1d(idx)
    d2 = sq_distances(cloud, q)
    assert np.array_equal(np.sqrt(d2[got]), d)
    want = idx[np.lexsort((idx, d2[idx]))]
    inner = d2[got] < d2[got[-1]]
    assert np.array_equal(got[inner], want[inner])
    if len(cloud) == len(got) or np.sort(d2)[len(got)] > d2[got[-1]]:
        assert np.array_equal(got, want)


@GRID
@given(cloud=clouds, cell=cells)
@example(cloud=np.array([[0.0, 0.0, -1e-38], [0.0, 0.0, 1.0]]), cell=1.0)
def test_grid_pairs_within_equal_query_pairs(cloud, cell):
    """Pairs across a cell face at exactly r (whole coordinates) and ones
    whose distance rounds down to r, such as 1 and -1e-38 at r = 1."""
    pairs = CellGrid(cloud, cell * (1.0 + 1e-9)).pairs_within(cell)
    got = {(min(i, j), max(i, j)) for i, j in pairs.tolist()}
    assert len(got) == len(pairs)
    assert got == cKDTree(cloud).query_pairs(r=cell)


def _tree_axis_verdict(axis, axis_s, radius, closed):
    """_check_axis on cKDTree.query_pairs: True where it accepts the axis."""
    pairs = cKDTree(axis).query_pairs(r=1.5 * radius, output_type="ndarray")
    gap = np.abs(axis_s[pairs[:, 0]] - axis_s[pairs[:, 1]])
    if closed:
        gap = np.minimum(gap, axis_s[-1] - gap)
    return not np.any(gap > 4.0 * radius)


@GRID
@given(axis=st.one_of(smooth_polylines(), clouds), radius=st.floats(0.2, 3.0),
       closed=st.booleans())
@example(axis=np.array([[0.0, 0.0, -1e-38], [0.0, 4.0, 0.0], [0.0, 0.0, 1.5]]),
         radius=1.0, closed=False)  # ends 1.5 apart after rounding, keys two apart
def test_axis_check_verdict_equals_query_pairs(axis, radius, closed):
    axis_s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(axis, axis=0), axis=1))])
    try:
        _check_axis(axis, axis_s, radius, closed)
        accepted = True
    except TunnelGenerationError:
        accepted = False
    assert accepted == _tree_axis_verdict(axis, axis_s, radius, closed)


def _axis_verdict(axis, radius, closed):
    """(_check_axis accepts, query_pairs accepts) for the axis."""
    axis_s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(axis, axis=0), axis=1))])
    try:
        _check_axis(axis, axis_s, radius, closed)
        accepted = True
    except TunnelGenerationError:
        accepted = False
    return accepted, _tree_axis_verdict(axis, axis_s, radius, closed)


@pytest.mark.parametrize("radius", [0.7, 1.0, 2.5])
@pytest.mark.parametrize("ratio", [0.9, 0.99, 0.999, 1.0, 1.001, 1.01, 1.1, 1.3, 1.45, 1.6])
@pytest.mark.parametrize("helix_radius", [3.0, 8.0])
def test_helix_axis_check_at_the_threshold_equals_query_pairs(radius, ratio, helix_radius):
    """Turns a pitch apart, the pitch straddling the 1.5 r threshold: the
    coarse pass and the exact search give query_pairs's verdict, and
    generate_tunnel accepts exactly the helices it accepts."""
    pitch = 1.5 * radius * ratio
    th_max = 2.0 * np.pi * 2.5
    n = int(np.ceil(th_max * np.hypot(helix_radius, pitch / (2 * np.pi)) / 0.1)) + 1
    th = np.linspace(0.0, th_max, n)
    axis = np.stack([helix_radius * np.cos(th), helix_radius * np.sin(th),
                     pitch * th / (2.0 * np.pi)], axis=1)
    accepted, want = _axis_verdict(axis, radius, False)
    assert accepted == want
    try:
        tc = generate_tunnel("helix", radius=radius, helix_radius=helix_radius,
                             pitch=pitch, turns=2.5, density=40.0)
    except TunnelGenerationError:
        assert not want
    else:
        assert want and np.array_equal(tc.axis, axis)


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("length", [20.0, 40.0, 80.0])
def test_torus_axis_check_equals_query_pairs(radius, length):
    """A closed torus passes, measured the shorter way round; the same
    axis read as open has its two ends close in space but far apart along
    the curve, and fails.  Both as query_pairs decides."""
    tc = generate_tunnel("torus", radius=radius, length=length, density=40.0)
    assert _axis_verdict(tc.axis, radius, True) == (True, True)
    assert _axis_verdict(tc.axis, radius, False) == (False, False)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("tunnel-*.json")),
                         ids=lambda p: p.stem)
def test_stock_progress_and_clearance_equal_ckdtree(path):
    """curvilinear takes the axis sample cKDTree finds, and wall_distance
    its distance, at points through and around each stock tunnel."""
    tcfg = json.loads(path.read_text())["tunnel"]
    tcfg.pop("noise_sigma", None)
    tc = generate_tunnel(tcfg.pop("shape"), **tcfg)
    wall, axis = cKDTree(tc.points), cKDTree(tc.axis)
    rng = np.random.default_rng(0)
    for p in tc.axis[::7] + rng.normal(0.0, 0.5 * tc.nominal_radius, (len(tc.axis[::7]), 3)):
        assert tc.wall_distance(p) == wall.query(p)[0]
        assert tc.curvilinear(p) == tc.axis_s[axis.query(p)[1]]
