import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from aeronav import tunnels
from aeronav.geom import unit
from aeronav.harness.runner import run
from aeronav.harness.scenarios import stock
from aeronav.tunnel_nav import (ROBUST_FAIL_LIMIT, SliceStarvation,
                                TunnelNavigator, TunnelParams,
                                estimate_normals, perceive_robust,
                                slice_centroids, slice_points, tunnel_law,
                                voxel_downsample)
from aeronav.tunnels import generate_tunnel
from aeronav.world import SensingModel, sense_points


def cylinder_cloud(radius=1.5, length=30.0):
    return generate_tunnel("straight", radius=radius, length=length).points


P = TunnelParams(v=1.0, delta=0.1, d1=1.0, d2=3.0, radius=1.0,
                 beta0=np.pi / 5, slice_tol=0.1, d_sensing=20.0)


def test_slice_centroids_on_axis():
    cloud = cylinder_cloud()
    c = np.array([5.0, 0.0, 0.0])
    f = np.array([1.0, 0.0, 0.0])
    cents = slice_centroids(c, f, cloud, P)
    assert np.allclose(cents.g1, [6.0, 0.0, 0.0], atol=0.05)
    assert np.allclose(cents.g1 + cents.a, [8.0, 0.0, 0.0], atol=0.05)
    assert cents.h == pytest.approx(0.0, abs=0.05)
    for d_i in (P.d1, P.d2):
        assert len(slice_points(cloud, c + d_i * f, f, P.slice_tol)) >= 20


def test_slice_centroids_off_axis_h_equals_offset():
    cloud = cylinder_cloud()
    r_off = 0.7
    c = np.array([5.0, r_off, 0.0])
    f = np.array([1.0, 0.0, 0.0])
    cents = slice_centroids(c, f, cloud, P)
    # ring centroids stay on the tunnel axis, so h recovers the offset
    assert cents.h == pytest.approx(r_off, abs=0.05)


def test_slice_centroids_requires_unit_heading():
    with pytest.raises(ValueError):
        slice_centroids(np.zeros(3), np.array([2.0, 0, 0]), cylinder_cloud(), P)


def test_slice_starvation_error():
    cloud = cylinder_cloud(length=5.0)
    with pytest.raises(SliceStarvation):
        slice_centroids(np.array([4.5, 0, 0]), np.array([1.0, 0, 0]), cloud, P)


def test_tunnel_law_mode1_follows_chord():
    cloud = cylinder_cloud()
    c = np.array([5.0, 0.0, 0.0])
    cents = slice_centroids(c, np.array([1.0, 0, 0]), cloud, P)
    v, mode = tunnel_law(c, cents, P)
    assert mode == "M1"
    assert np.linalg.norm(v) == pytest.approx(P.v, abs=1e-9)
    assert np.dot(v, [1, 0, 0]) > 0.99 * P.v


def test_tunnel_law_mode2_angle_is_beta0():
    cloud = cylinder_cloud()
    c = np.array([5.0, 0.85, 0.0])  # h ~ 0.85 >= R - 2 eps0 = 0.8
    cents = slice_centroids(c, np.array([1.0, 0, 0]), cloud, P)
    v, mode = tunnel_law(c, cents, P)
    assert mode == "M2"
    a_hat = cents.a / np.linalg.norm(cents.a)
    ang = np.arccos(np.clip(np.dot(v / P.v, a_hat), -1, 1))
    assert ang == pytest.approx(P.beta0, abs=1e-9)
    assert np.linalg.norm(v) == pytest.approx(P.v, abs=1e-12)
    # rotation sense reduces the offset: velocity has a -y component
    assert v[1] < 0.0


def test_closed_loop_h_non_increasing_in_m2():
    """Off-axis start inside a straight tunnel: h decreases during
    re-centering steps (the discrete analogue of the safety argument)."""
    params = TunnelParams(v=1.0, delta=0.1, d1=1.0, d2=3.0, radius=1.0,
                          beta0=np.pi / 5, slice_tol=0.1, d_sensing=20.0)
    cloud = cylinder_cloud(radius=1.5, length=40.0)
    c = np.array([2.0, 0.9, 0.0])
    v = np.array([1.0, 0.0, 0.0]) * params.v
    hs, modes = [], []
    for _ in range(150):
        cents = slice_centroids(c, v / np.linalg.norm(v), cloud, params)
        v, mode = tunnel_law(c, cents, params)
        hs.append(cents.h)
        modes.append(mode)
        c = c + v * params.delta
        if c[0] > 33.0:
            break
    hs = np.array(hs)
    m2 = [i for i, m in enumerate(modes[:-1]) if m == "M2"]
    assert m2, "expected some re-centering steps"
    for i in m2:
        assert hs[i + 1] <= hs[i] + 1e-9
    assert hs[-1] < params.radius


def test_speed_norm_constant_contract():
    cloud = cylinder_cloud()
    params = P
    c = np.array([2.0, 0.5, 0.3])
    v = np.array([1.0, 0, 0])
    for _ in range(60):
        cents = slice_centroids(c, v / np.linalg.norm(v), cloud, params)
        v, _ = tunnel_law(c, cents, params)
        assert np.linalg.norm(v) == pytest.approx(params.v, abs=1e-12)
        c = c + v * params.delta


def _loop_voxel_downsample(cloud, voxel):
    """Test-local copy of the per-voxel loop: one .mean(axis=0) per voxel."""
    keys = np.floor(cloud / voxel).astype(np.int64)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    pts_sorted = cloud[order]
    change = np.any(np.diff(keys[order], axis=0) != 0, axis=1)
    starts = np.concatenate([[0], np.nonzero(change)[0] + 1, [len(cloud)]])
    return np.array([pts_sorted[a:b].mean(axis=0)
                     for a, b in zip(starts[:-1], starts[1:])])


def _own_voxel_distance(cloud, out, voxel):
    """Distance from each input point to the output of its own voxel (np.unique
    orders voxel keys like the lexsort, first coordinate first)."""
    keys = np.floor(cloud / voxel).astype(np.int64)
    _, own = np.unique(keys, axis=0, return_inverse=True)
    return np.linalg.norm(cloud - out[own.ravel()], axis=1)


def test_voxel_downsample_properties():
    """Each point lies within one voxel diagonal of its own voxel's mean; half
    a diagonal to the nearest output does not hold: two points at the near
    corner pull the mean away from a third at the far corner."""
    cloud = np.array([[0.01, 0.01, 0.01], [0.01, 0.01, 0.01], [0.49, 0.49, 0.49]])
    out = voxel_downsample(cloud, 0.5)
    assert len(out) == 1
    d = _own_voxel_distance(cloud, out, 0.5)
    assert d.max() == pytest.approx(0.554, abs=1e-3)
    assert d.max() > 0.5 * np.sqrt(3) * 0.5
    assert d.max() <= np.sqrt(3) * 0.5


clustered = st.sampled_from([0.0, 0.01, 0.49, 0.5, 1.3, -0.7, -2.0])
spread = st.floats(-5.0, 5.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(cloud=st.integers(1, 400).flatmap(lambda n: st.one_of(
           arrays(np.float64, (n, 3), elements=spread),
           arrays(np.float64, (n, 3), elements=clustered))),
       voxel=st.floats(0.05, 2.0))
def test_voxel_downsample_equals_per_voxel_loop(cloud, voxel):
    out = voxel_downsample(cloud, voxel)
    assert np.array_equal(out, _loop_voxel_downsample(cloud, voxel))
    assert len(out) <= len(cloud)
    assert np.all(_own_voxel_distance(cloud, out, voxel) <= np.sqrt(3) * voxel + 1e-9)


def test_voxel_downsample_bad_voxel():
    with pytest.raises(ValueError):
        voxel_downsample(np.zeros((3, 3)), 0.0)


def test_estimate_normals_on_cylinder_wall():
    cloud = cylinder_cloud()
    q = np.array([[10.0, 1.5, 0.0]])
    n = estimate_normals(cloud, q, k=12)[0]
    # wall normal is radial: +-y here
    assert abs(abs(n[1]) - 1.0) < 0.1


def test_perceive_robust_wide_tunnel_valid_without_repair():
    cloud = cylinder_cloud(radius=2.0)
    params = TunnelParams(v=1.0, delta=0.1, d1=1.25, d2=1.75, radius=1.5,
                          beta0=np.pi / 5, slice_tol=0.1, d_safe=0.45)
    got = perceive_robust(np.array([5.0, 0, 0]), np.array([1.0, 0, 0]), cloud,
                          [1.25, 1.5, 1.75], params)
    assert got is not None
    g1, g2 = got
    assert np.hypot(g1[1], g1[2]) < 0.45
    # nearest two probes chosen
    assert g1[0] < g2[0]


def test_perceive_robust_repair_pushes_clear():
    """A centroid dragged near the wall by a one-sided cloud gets repaired to
    at least d_safe from its neighbors."""
    cloud = cylinder_cloud(radius=1.0)
    half = cloud[cloud[:, 1] > 0.2]  # only one side visible
    params = TunnelParams(v=1.0, delta=0.1, d1=1.0, d2=3.0, radius=1.0,
                          beta0=np.pi / 5, slice_tol=0.15, d_safe=0.45)
    got = perceive_robust(np.array([5.0, 0, 0]), np.array([1.0, 0, 0]), half,
                          [1.0, 2.0, 3.0], params, voxel=0.1)
    if got is not None:
        tree = cKDTree(voxel_downsample(half, 0.1))
        for g in got:
            d, _ = tree.query(g)
            assert d > params.d_safe


def test_perceive_robust_termination_counter():
    """A failed perception is None; the navigator stops only after
    ROBUST_FAIL_LIMIT failures in a row, and a success restarts the count."""
    empty_region = np.array([[100.0, 100.0, 100.0]])
    assert perceive_robust(np.zeros(3), np.array([1.0, 0, 0]), empty_region,
                           [1.0, 3.0], P) is None
    nav = TunnelNavigator(P, cylinder_cloud(), np.array([1.0, 0, 0]), pipeline="robust")
    starved, inside = np.array([40.0, 0.0, 0.0]), np.array([5.0, 0.0, 0.0])
    for c in [starved] * (ROBUST_FAIL_LIMIT - 1) + [inside]:
        nav.control(c)
    assert nav.failures == 0
    for _ in range(ROBUST_FAIL_LIMIT - 1):
        nav.control(starved)
    assert not nav.terminated
    nav.control(starved)
    assert nav.terminated


def test_navigator_rejects_unknown_pipeline():
    with pytest.raises(ValueError):
        TunnelNavigator(P, cylinder_cloud(), np.array([1.0, 0, 0]), pipeline="simple")


def test_robust_navigator_terminates_on_fifth_starved_tick():
    """Past the tunnel's end the probe slices ahead are empty: the robust
    navigator holds its last command for four ticks and stops on the fifth."""
    cloud = cylinder_cloud()
    nav = TunnelNavigator(P, cloud, np.array([1.0, 0, 0]), pipeline="robust")
    c = np.array([40.0, 0.0, 0.0])
    for _ in range(4):
        assert np.array_equal(nav.control(c), [P.v, 0.0, 0.0])
        assert not nav.terminated
    nav.control(c)
    assert nav.terminated


def test_navigator_straight_run_completes():
    cloud_obj = generate_tunnel("straight", radius=1.5, length=30.0)
    params = TunnelParams(v=1.0, delta=0.1, d1=1.0, d2=3.0, radius=1.0,
                          beta0=np.pi / 5, slice_tol=0.1, d_sensing=20.0)
    nav = TunnelNavigator(params, cloud_obj.points, np.array([1.0, 0, 0]))
    c = np.array([1.0, 0.3, -0.2])
    min_wall = np.inf
    for _ in range(300):
        v = nav.control(c)
        c = c + v * params.delta
        min_wall = min(min_wall, cloud_obj.wall_distance(c))
        if c[0] > 26.0:
            break
    assert c[0] > 26.0
    assert min_wall > 0.0


# -- slab grid: the slices of the noise-free pipeline, row for row ----------

def _whole_cloud_slices(c, f, cloud, params):
    """The two slices cut from the whole sensed cloud."""
    local = sense_points(c, cloud, SensingModel(d_sensing=params.d_sensing))
    return [slice_points(local, c + d * f, f, params.slice_tol)
            for d in (params.d1, params.d2)]


def _grid_slices(nav, c, f):
    local = nav._sense(c, f)
    return [slice_points(local, c + d * f, f, nav.params.slice_tol)
            for d in (nav.params.d1, nav.params.d2)]


# cell faces sit on whole meters: draw many coordinates there
coordinate = st.one_of(st.floats(-12.0, 12.0), st.integers(-12, 12).map(float),
                       st.sampled_from([0.5, -0.5, 0.1, -0.1, 1e-9]))
heading = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda h: np.linalg.norm(h) > 0.1).map(lambda h: unit(np.array(h)))


@settings(max_examples=200, deadline=None)
@given(cloud=st.integers(0, 120).flatmap(
           lambda n: arrays(np.float64, (n, 3), elements=coordinate)),
       c=st.tuples(*[coordinate] * 3).map(np.array), f=heading,
       d1=st.floats(0.0, 5.0), gap=st.floats(0.1, 5.0), tol=st.floats(0.01, 1.5),
       d_sensing=st.floats(0.5, 25.0))
def test_grid_slices_equal_whole_cloud_slices(cloud, c, f, d1, gap, tol, d_sensing):
    params = TunnelParams(d1=d1, d2=d1 + gap, slice_tol=tol, d_sensing=d_sensing)
    nav = TunnelNavigator(params, cloud, f)
    assert nav.grid is not None
    for got, want in zip(_grid_slices(nav, c, f), _whole_cloud_slices(c, f, cloud, params)):
        assert np.array_equal(got, want)


def test_grid_slices_on_boundaries():
    """Rings every 0.1 m with slice_tol 0.1 put whole rings on the slab
    faces, and points exactly d_sensing away sit on the range sphere."""
    params = TunnelParams(d1=3.0, d2=4.0, slice_tol=0.1, d_sensing=5.0)
    f = np.array([1.0, 0.0, 0.0])
    tube = cylinder_cloud(radius=1.5, length=30.0)
    on_sphere = np.array([[x + dx, y, z] for x in range(2, 20)
                          for dx, y, z in [(3.0, 4.0, 0.0), (3.0, 0.0, -4.0),
                                           (4.0, -3.0, 0.0), (4.0, 3.0 + 1e-12, 0.0)]])
    cloud = np.vstack([tube, on_sphere])
    nav = TunnelNavigator(params, cloud, f)
    on_face = 0
    for x in np.arange(2.0, 20.0, 0.05):
        c = np.array([x, 0.0, 0.0])
        want = _whole_cloud_slices(c, f, cloud, params)
        for got, want_i, d in zip(_grid_slices(nav, c, f), want, (3.0, 4.0)):
            assert np.array_equal(got, want_i)
            on_face += np.count_nonzero(np.abs(np.abs(got[:, 0] - (x + d)) - 0.1) < 1e-9)
    assert on_face > 0
    c = np.array([10.0, 0.0, 0.0])
    s1, s2 = _grid_slices(nav, c, f)
    assert [13.0, 4.0, 0.0] in s1.tolist() and [14.0, -3.0, 0.0] in s2.tolist()
    assert [14.0, 3.0 + 1e-12, 0.0] not in s2.tolist()


def test_grid_range_cuts_inside_cells():
    """A sensing range shorter than a cell's half-diagonal cuts through the
    cells the vehicle sits in, so the points still need their range test."""
    rng = np.random.default_rng(4)
    one_cell = rng.uniform(0.0, 1.0, (400, 3))
    f = unit(np.array([1.0, 0.3, -0.2]))
    cut = 0
    for cloud, d_sensing in itertools.product(
            (one_cell, np.vstack([one_cell, rng.uniform(-1.0, 2.0, (400, 3))])),
            (0.3, 0.6, 0.9, 1.5)):
        params = TunnelParams(d1=0.0, d2=0.25, slice_tol=0.5, d_sensing=d_sensing)
        nav = TunnelNavigator(params, cloud, f)
        for c in ([0.5, 0.5, 0.5], [0.1, 0.9, 0.4], [1.0, 1.0, 0.0]):
            c = np.array(c)
            want = _whole_cloud_slices(c, f, cloud, params)
            cut += len(want[0]) < np.count_nonzero(np.abs((cloud - c) @ f) <= 0.5)
            for got, want_i in zip(_grid_slices(nav, c, f), want):
                assert np.array_equal(got, want_i)
    assert cut >= 12


@pytest.mark.parametrize("x", [28.5, 100.0], ids=["empty-slab", "empty-sense"])
def test_grid_empty_slab_terminates_as_whole_cloud(x):
    cloud = cylinder_cloud(length=30.0)
    f = np.array([1.0, 0.0, 0.0])
    nav = TunnelNavigator(P, cloud, f)
    ref = TunnelNavigator(P, cloud, f)
    ref.grid = None  # sense the whole cloud
    c = np.array([x, 0.0, 0.0])
    got, want = nav.control(c), ref.control(c)
    assert np.array_equal(got, np.zeros(3)) and np.array_equal(want, np.zeros(3))
    assert nav.terminated and ref.terminated


def test_grid_closed_loop_matches_whole_cloud():
    cloud = generate_tunnel("smooth-bend", radius=1.5, length=30.0).points
    f = np.array([1.0, 0.0, 0.0])
    nav, ref = TunnelNavigator(P, cloud, f), TunnelNavigator(P, cloud, f)
    ref.grid = None
    c = np.array([1.0, 0.3, -0.2])
    for _ in range(250):
        v = nav.control(c)
        assert np.array_equal(v, ref.control(c)) and nav.mode == ref.mode
        if nav.terminated:
            break
        c = c + v * P.delta
    assert c[0] > 10.0


def test_tunnel_run_builds_one_grid(monkeypatch):
    """The navigator senses through the grid its tunnel cloud built for
    wall distances: one grid over the wall per run, beside the axis check's."""
    cells = []
    init = tunnels.CellGrid.__init__
    monkeypatch.setattr(tunnels.CellGrid, "__init__",
                        lambda self, points, cell: cells.append(cell) or init(self, points, cell))
    res = run({**stock("tunnel-a-smooth-bend"), "duration": 2.0})
    assert res.log.records[-1]["tick"] >= 10
    assert len(cells) == 2 and cells.count(tunnels.GRID_CELL) == 1


def test_grid_only_for_noise_free_slices():
    cloud = cylinder_cloud()
    f = np.array([1.0, 0.0, 0.0])
    noisy = SensingModel(d_sensing=20.0, sigma=0.01)
    assert TunnelNavigator(P, cloud, f, sensing=noisy,
                           rng=np.random.default_rng(0)).grid is None
    assert TunnelNavigator(P, cloud, f, pipeline="robust").grid is None
