import numpy as np
import pytest

from aeronav.world import (Cylinder, Ellipsoid, Moving, QueryError,
                           SensingModel, Sphere, Wall, World, sense_points)


def test_sphere_offset_distance():
    w = World([Sphere(np.zeros(3), 2.0)])
    d, q, i = w.nearest_obstacle(np.array([3.0, 0.0, 0.0]))
    assert d == pytest.approx(1.0)
    assert np.allclose(q, [2.0, 0.0, 0.0])
    assert i == 0


def test_equidistant_tie_lowest_id():
    w = World([Sphere(np.array([-2.0, 0.0]), 1.0), Sphere(np.array([2.0, 0.0]), 1.0)])
    d, _, i = w.nearest_obstacle(np.zeros(2))
    assert d == pytest.approx(1.0)
    assert i == 0  # deterministic tie-break


def test_empty_world_raises():
    with pytest.raises(QueryError):
        World([]).nearest_obstacle(np.zeros(3))


def test_ellipsoid_distance_vs_surface_sampling_oracle():
    """Newton/Brent distance cross-checked against dense surface sampling."""
    ell = Ellipsoid(np.array([5.0, 3.0, -3.0]), np.array([5.0, 7.0, 2.0]))
    p = np.array([5.0, 12.0, 2.0])
    d, q = ell.distance(p)
    # oracle: brute-force sampling of the surface
    th = np.linspace(0, np.pi, 600)
    ph = np.linspace(0, 2 * np.pi, 1200)
    TH, PH = np.meshgrid(th, ph)
    pts = np.stack([5.0 * np.sin(TH) * np.cos(PH),
                    7.0 * np.sin(TH) * np.sin(PH),
                    2.0 * np.cos(TH)], axis=-1).reshape(-1, 3) + ell.center
    d_brute = np.min(np.linalg.norm(pts - p, axis=1))
    assert d == pytest.approx(d_brute, abs=1e-3)
    assert abs(ell.level(q)) < 1e-9  # the closest point is on the surface


def test_ellipsoid_inside_distance_zero():
    ell = Ellipsoid(np.zeros(3), np.array([2.0, 3.0, 1.0]))
    assert ell.distance(np.array([0.5, 0.5, 0.1]))[0] == 0.0


def test_cylinder_distance():
    cyl = Cylinder(np.zeros(3), np.array([0, 0, 1.0]), radius=1.0, height=2.0)
    assert cyl.distance(np.array([2.0, 0.0, 1.0]))[0] == pytest.approx(1.0)
    assert cyl.distance(np.array([0.0, 0.0, 3.0]))[0] == pytest.approx(1.0)
    # corner region: diagonal of (radial gap, axial gap)
    d, _ = cyl.distance(np.array([2.0, 0.0, 3.0]))
    assert d == pytest.approx(np.sqrt(2.0))


def test_wall_distance_exact():
    wall = Wall(np.array([[0.0, 0.0], [4.0, 0.0]]))
    d, q = wall.distance(np.array([2.0, 3.0]))
    assert d == pytest.approx(3.0)
    assert np.allclose(q, [2.0, 0.0])


def test_rigid_transform_invariance():
    """nearest_obstacle symmetric under a rigid transform of world + query."""
    from aeronav.geom import rodrigues_matrix
    rng = np.random.default_rng(4)
    rot = rodrigues_matrix(np.array([0, 0, 1.0]), 0.7)
    shift = np.array([1.0, -2.0, 0.5])
    c = rng.standard_normal(3)
    p = c + np.array([4.0, 1.0, 0.3])
    w1 = World([Sphere(c, 1.5)])
    w2 = World([Sphere(rot @ c + shift, 1.5)])
    d1 = w1.nearest_obstacle(p)[0]
    d2 = w2.nearest_obstacle(rot @ p + shift)[0]
    assert d1 == pytest.approx(d2, abs=1e-9)


def test_moving_obstacle_continuity_and_speed_bound():
    m = Moving(Sphere(np.zeros(2), 0.5), velocity=np.array([0.4, 0.2]))
    assert m.velocity_bound() == pytest.approx(np.hypot(0.4, 0.2))
    prev = None
    for t in np.linspace(0, 10, 400):
        off = m.offset(t)
        if prev is not None:
            step = np.linalg.norm(off - prev) / (10 / 399)
            assert step <= m.velocity_bound() + 1e-9
        prev = off


def test_sense_points_within_range_noiseless_subset():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5, 5, size=(500, 3))
    model = SensingModel(d_sensing=3.0, sigma=0.0)
    out = sense_points(np.zeros(3), pts, model)
    assert np.all(np.linalg.norm(out, axis=1) <= 3.0)
    # noiseless output is an exact subset
    as_set = {tuple(row) for row in pts}
    assert all(tuple(row) in as_set for row in out)


def test_sense_points_mask_equals_norm_mask_at_the_range():
    """The range mask is the `norm(axis=1) <= d_sensing` mask, also for points
    exactly at d_sensing: each threshold below is one point's own distance."""
    rng = np.random.default_rng(3)
    p = rng.uniform(-1.0, 1.0, 3)
    pts = rng.uniform(-6.0, 6.0, size=(2000, 3))
    d = np.linalg.norm(pts - p, axis=1)
    for r in d[:40]:
        for r_k in (r, np.nextafter(r, 0.0)):
            want = pts[np.linalg.norm(pts - p, axis=1) <= r_k]
            got = sense_points(p, pts, SensingModel(d_sensing=float(r_k)))
            assert np.array_equal(got, want)
    exact = np.array([[5.0, 0.0, 0.0], [0.0, -5.0, 0.0], [3.0, 4.0, 0.0], [0.0, 3.0, -4.0]])
    got = sense_points(np.zeros(3), exact, SensingModel(d_sensing=5.0))
    assert np.array_equal(got, exact)


def test_sense_points_full_coverage_when_range_large():
    pts = np.random.default_rng(1).uniform(-1, 1, size=(100, 3))
    model = SensingModel(d_sensing=10.0)
    assert len(sense_points(np.zeros(3), pts, model)) == 100


def test_sense_points_deterministic_under_seed():
    pts = np.random.default_rng(2).uniform(-1, 1, size=(200, 3))
    model = SensingModel(d_sensing=5.0, sigma=0.01)
    a = sense_points(np.zeros(3), pts, model, np.random.default_rng(42))
    b = sense_points(np.zeros(3), pts, model, np.random.default_rng(42))
    assert a.tobytes() == b.tobytes()


def test_raycast_disc():
    w = World([Sphere(np.array([5.0, 0.0]), 1.0)])
    r = w.raycast_2d(np.zeros(2), np.array([0.0, np.pi / 2, np.pi]), 20.0)
    assert r[0] == pytest.approx(4.0)
    assert r[1] == pytest.approx(20.0)
    assert r[2] == pytest.approx(20.0)


def test_raycast_wall():
    w = World([Wall(np.array([[2.0, -5.0], [2.0, 5.0]]))])
    r = w.raycast_2d(np.zeros(2), np.array([0.0, np.pi / 4]), 20.0)
    assert r[0] == pytest.approx(2.0)
    assert r[1] == pytest.approx(2.0 * np.sqrt(2.0))


def test_raycast_ellipsoid_unsupported():
    """Only discs and walls are raycast; an ellipsoid is refused, not
    silently approximated."""
    w = World([Ellipsoid(np.array([5.0, 0.0]), np.array([1.0, 2.0]))])
    with pytest.raises(QueryError):
        w.raycast_2d(np.zeros(2), np.array([0.0]), 20.0)
