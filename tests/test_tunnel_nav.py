import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from aeronav.tunnel_nav import (RobustPerceptionState, SliceStarvation,
                                TunnelNavigator, TunnelParams,
                                estimate_normals, perceive_robust,
                                slice_centroids, tunnel_law, voxel_downsample)
from aeronav.tunnels import generate_tunnel



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
    assert np.allclose(cents.g2, [8.0, 0.0, 0.0], atol=0.05)
    assert cents.h == pytest.approx(0.0, abs=0.05)
    assert cents.count1 >= 20 and cents.count2 >= 20


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
    n = estimate_normals(cKDTree(cloud), q, k=12)[0]
    # wall normal is radial: +-y here
    assert abs(abs(n[1]) - 1.0) < 0.1


def test_perceive_robust_wide_tunnel_valid_without_repair():
    cloud = cylinder_cloud(radius=2.0)
    state = RobustPerceptionState()
    params = TunnelParams(v=1.0, delta=0.1, d1=1.25, d2=1.75, radius=1.5,
                          beta0=np.pi / 5, slice_tol=0.1, d_safe=0.45)
    got = perceive_robust(np.array([5.0, 0, 0]), np.array([1.0, 0, 0]), cloud,
                          [1.25, 1.5, 1.75], params, state)
    assert got is not None
    g1, g2 = got
    assert np.hypot(g1[1], g1[2]) < 0.45
    assert state.failures == 0
    # nearest two probes chosen
    assert g1[0] < g2[0]


def test_perceive_robust_repair_pushes_clear():
    """A centroid dragged near the wall by a one-sided cloud gets repaired to
    at least d_safe from its neighbors."""
    cloud = cylinder_cloud(radius=1.0)
    half = cloud[cloud[:, 1] > 0.2]  # only one side visible
    state = RobustPerceptionState()
    params = TunnelParams(v=1.0, delta=0.1, d1=1.0, d2=3.0, radius=1.0,
                          beta0=np.pi / 5, slice_tol=0.15, d_safe=0.45)
    got = perceive_robust(np.array([5.0, 0, 0]), np.array([1.0, 0, 0]), half,
                          [1.0, 2.0, 3.0], params, state, voxel=0.1)
    if got is not None:
        tree = cKDTree(voxel_downsample(half, 0.1))
        for g in got:
            d, _ = tree.query(g)
            assert d > params.d_safe


def test_perceive_robust_termination_counter():
    state = RobustPerceptionState()
    params = P
    empty_region = np.array([[100.0, 100.0, 100.0]])
    for _ in range(5):
        got = perceive_robust(np.zeros(3), np.array([1.0, 0, 0]), empty_region,
                              [1.0, 3.0], params, state)
        assert got is None
    assert state.failures >= 5


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
