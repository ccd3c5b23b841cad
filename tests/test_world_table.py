"""The packed obstacle table of `World` against the per-obstacle loops it
replaced, kept here as the reference: `nearest_obstacle`, `batch_distance`
and `raycast_2d` must give the same bits on mixed worlds."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeronav.geom import row_norms
from aeronav.harness.monitors import SafetyRecord
from aeronav.harness.runner import _clearance
from aeronav.world import (Cylinder, Ellipsoid, Moving, QueryError, Sphere, Wall,
                           World)

ORACLE = settings(max_examples=200, deadline=None, derandomize=True)
_INF = float("inf")


# -- the per-obstacle loops ----------------------------------------------------

def loop_nearest(world, p, t=0.0):
    best_d, best_q, best_i = _INF, None, -1
    for i, o in enumerate(world.obstacles):
        d, q = o.distance(p, t)
        if d < best_d - 1e-15:
            best_d, best_q, best_i = d, q, i
    return best_d, best_q, best_i


def loop_batch(world, points, t=0.0):
    points = np.asarray(points, dtype=float)
    out = np.full(len(points), _INF)
    for o in world.obstacles:
        np.minimum(out, _batch_obstacle_distance(o, points, t), out=out)
    return out


def _batch_obstacle_distance(o, pts, t):
    if isinstance(o, Moving):
        return _batch_obstacle_distance(o.shape, pts - o.offset(t)[None, :], 0.0)
    if isinstance(o, Sphere):
        return np.maximum(row_norms(pts - o.center[None, :]) - o.radius, 0.0)
    if isinstance(o, Cylinder):
        r = pts - o.base[None, :]
        h = r @ o.axis
        radial = r - h[:, None] * o.axis[None, :]
        rho = row_norms(radial)
        dz = np.maximum(np.maximum(-h, h - o.height), 0.0)
        dr = np.maximum(rho - o.radius, 0.0)
        return np.hypot(dr, dz)
    if isinstance(o, Wall):
        best = np.full(len(pts), _INF)
        for a, b in zip(o.vertices[:-1], o.vertices[1:]):
            ab = b - a
            denom = float(np.dot(ab, ab))
            if denom < 1e-18:
                d = row_norms(pts - a[None, :])
            else:
                s = np.clip((pts - a[None, :]) @ ab / denom, 0.0, 1.0)
                q = a[None, :] + s[:, None] * ab[None, :]
                d = row_norms(pts - q)
            best = np.minimum(best, d)
        return best
    return np.array([o.distance(p, t)[0] for p in pts])


def loop_raycast(world, origin, angles, max_range, t=0.0):
    origin = np.asarray(origin, dtype=float)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    ranges = np.full(len(angles), max_range)
    for o in world.obstacles:
        ranges = np.minimum(ranges, _ray_ranges(o, origin, dirs, max_range, t))
    return ranges


def _ray_ranges(o, origin, dirs, max_range, t):
    n = len(dirs)
    if isinstance(o, Moving):
        return _ray_ranges(o.shape, origin - o.offset(t), dirs, max_range, 0.0)
    if isinstance(o, Sphere):
        oc = origin - o.center
        b = dirs @ oc
        c = float(np.dot(oc, oc)) - o.radius ** 2
        disc = b * b - c
        hit = disc >= 0.0
        s = np.full(n, np.inf)
        sq = np.sqrt(np.maximum(disc, 0.0))
        t0 = -b - sq
        t1 = -b + sq
        near = np.where(t0 >= 0.0, t0, np.where(t1 >= 0.0, 0.0, np.inf))
        s[hit] = near[hit]
        return np.minimum(s, max_range)
    if isinstance(o, Wall):
        s = np.full(n, max_range)
        for a, b in zip(o.vertices[:-1], o.vertices[1:]):
            s = np.minimum(s, _ray_segment(origin, dirs, a, b, max_range))
        return s
    raise QueryError(f"raycast unsupported for {type(o).__name__}")


def _ray_segment(origin, dirs, a, b, max_range):
    e = b - a
    w = a - origin
    denom = dirs[:, 0] * (-e[1]) - dirs[:, 1] * (-e[0])
    out = np.full(len(dirs), max_range)
    ok = np.abs(denom) > 1e-12
    t_ray = (w[0] * (-e[1]) - w[1] * (-e[0])) / np.where(ok, denom, 1.0)
    t_seg = (dirs[:, 0] * w[1] - dirs[:, 1] * w[0]) / np.where(ok, denom, 1.0)
    hit = ok & (t_ray >= 0.0) & (t_seg >= 0.0) & (t_seg <= 1.0)
    out[hit] = np.minimum(t_ray[hit], max_range)
    return out


# -- mixed worlds ----------------------------------------------------------------

def _same_nearest(world, p, t):
    got, want = world.nearest_obstacle(p, t), loop_nearest(world, p, t)
    assert got[0] == want[0] and got[2] == want[2]
    assert (got[1] is None) == (want[1] is None)
    if want[1] is not None:
        assert got[1].tobytes() == want[1].tobytes()
    return got


def _wall(rng, dim):
    """A polyline of 2 to 4 vertices; some segments are points or shorter
    than 1e-6 (squared length between the batch and the point tests)."""
    v = rng.uniform(-8.0, 8.0, (rng.integers(2, 5), dim))
    for k in range(1, len(v)):
        roll = rng.random()
        if roll < 0.15:
            v[k] = v[k - 1]
        elif roll < 0.3:
            v[k] = v[k - 1] + rng.normal(size=dim) * 1e-7
    return Wall(v)


def _primitive(rng, dim, kinds):
    kind = kinds[rng.integers(len(kinds))]
    c = rng.uniform(-8.0, 8.0, dim)
    if kind == "sphere":
        return Sphere(c, float(rng.uniform(0.2, 3.0)))
    if kind == "cylinder":
        return Cylinder(c, rng.normal(size=3), float(rng.uniform(0.3, 2.0)),
                        float(rng.uniform(0.5, 6.0)))
    if kind == "ellipsoid":
        return Ellipsoid(c, rng.uniform(0.3, 3.0, dim))
    return _wall(rng, dim)


def _world(seed, dim, kinds):
    """2 to 9 obstacles, a third of them moving, and a duplicate now and then."""
    rng = np.random.default_rng(seed)
    obs = []
    for _ in range(rng.integers(2, 10)):
        o = _primitive(rng, dim, kinds)
        if rng.random() < 0.3:
            o = Moving(o, rng.normal(size=dim))
        obs.append(o)
        if rng.random() < 0.15:
            obs.append(o)
    return World(obs), rng


def _queries(world, rng, dim):
    """Random points, and the special ones: a sphere's centre, a cylinder's
    interior near each face, a wall vertex."""
    pts = list(rng.uniform(-12.0, 12.0, (6, dim)))
    for o in world.obstacles:
        shape = o.shape if isinstance(o, Moving) else o
        if isinstance(shape, Sphere):
            pts.append(shape.center.copy())
        elif isinstance(shape, Cylinder):
            for h, f in ((0.05, 0.2), (0.5, 0.95), (0.97, 0.1), (0.5, 0.0)):
                radial = np.cross(shape.axis, rng.normal(size=3))
                radial *= f * shape.radius / np.linalg.norm(radial)
                pts.append(shape.base + h * shape.height * shape.axis + radial)
        elif isinstance(shape, Wall):
            pts.append(shape.vertices[0].copy())
    return pts


KINDS_2D = ("sphere", "wall", "ellipsoid")
KINDS_3D = ("sphere", "cylinder", "ellipsoid", "wall")


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
       t=st.sampled_from([0.0, 0.7, 3.25]))
def test_nearest_and_batch_equal_the_per_obstacle_loops(seed, dim, t):
    world, rng = _world(seed, dim, KINDS_2D if dim == 2 else KINDS_3D)
    pts = _queries(world, rng, dim)
    for p in pts:
        _same_nearest(world, p, t)
    got = world.batch_distance(np.array(pts), t)
    assert got.tobytes() == loop_batch(world, np.array(pts), t).tobytes()


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), t=st.sampled_from([0.0, 1.5]))
def test_raycast_equals_the_per_obstacle_loops(seed, t):
    world, rng = _world(seed, 2, ("sphere", "wall"))
    angles = np.concatenate([rng.uniform(-np.pi, np.pi, 40), np.arange(8) * np.pi / 4])
    for origin in _queries(world, rng, 2):
        got = world.raycast_2d(origin, angles, 15.0, t)
        assert got.tobytes() == loop_raycast(world, origin, angles, 15.0, t).tobytes()


def test_many_point_nearest_equals_one_point_queries():
    world, rng = _world(7, 3, KINDS_3D)
    pts = np.array(_queries(world, rng, 3))
    many = world.nearest_obstacle(pts, 0.4)
    for p, (d, q, i) in zip(pts, many):
        d1, q1, i1 = _same_nearest(world, p, 0.4)
        assert (d, i) == (d1, i1) and q.tobytes() == q1.tobytes()


def test_duplicates_and_the_centre_of_a_sphere():
    s = Sphere(np.array([1.0, 2.0, 3.0]), 1.5)
    world = World([Sphere(np.array([9.0, 0.0, 0.0]), 1.0), s, s, Moving(s, np.zeros(3))])
    d, q, i = _same_nearest(world, s.center.copy(), 2.0)
    assert (d, i) == (0.0, 1)
    assert q.tolist() == [2.5, 2.0, 3.0]


@pytest.mark.parametrize("gap", [-3e-15, -1e-15, -5e-16, 0.0, 5e-16, 1e-15, 3e-15,
                                 1e-7, 1e-6, 2e-6])
@pytest.mark.parametrize("ellipsoid_first", [False, True])
def test_ellipsoid_near_ties_at_the_pruning_bound(gap, ellipsoid_first):
    """On the extension of the major axis the ellipsoid's distance is its
    centre distance less the major semi-axis, the bound it is pruned by;
    a sphere sits within `gap` of it, before or after it in the table."""
    ell = Ellipsoid(np.array([0.0, 0.0, 0.0]), np.array([3.0, 1.0, 2.0]))
    p = np.array([7.0, 0.0, 0.0])
    d_ell = ell.distance(p)[0]
    sphere = Sphere(np.array([7.0, 10.0, 0.0]), 10.0 - d_ell - gap)
    obs = [ell, sphere] if ellipsoid_first else [sphere, ell]
    world = World(obs)
    _same_nearest(world, p, 0.0)
    world = World(obs + [Ellipsoid(np.array([7.0, -4.0 - gap, 0.0]), np.array([1.0, 4.0, 1.0]))])
    _same_nearest(world, p, 0.0)


def test_only_an_ellipsoid_that_can_win_is_solved(monkeypatch):
    """Far ellipsoids behind a near obstacle are skipped, in table order."""
    solved = []
    solve = Ellipsoid.distance

    def counted(self, p, t=0.0):
        solved.append(self)
        return solve(self, p, t)

    monkeypatch.setattr(Ellipsoid, "distance", counted)
    near = Ellipsoid(np.array([2.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0]))
    far = [Ellipsoid(np.array([20.0 + k, 5.0, 0.0]), np.array([1.0, 2.0, 3.0])) for k in range(4)]
    d, _, i = World([near] + far).nearest_obstacle(np.zeros(3))
    assert (d, i) == (1.0, 0) and solved == [near]
    solved.clear()
    World(far + [near]).nearest_obstacle(np.zeros(3))
    assert solved[0] is far[0] and solved[-1] is near


def test_obstacles_are_a_tuple_and_unknown_shapes_are_refused():
    world = World([Sphere(np.zeros(2), 1.0)])
    assert isinstance(world.obstacles, tuple)
    with pytest.raises(TypeError):
        World([Moving(Moving(Sphere(np.zeros(2), 1.0), np.ones(2)), np.ones(2))])


@pytest.mark.parametrize("obstacle", [Sphere(np.zeros(3), 1.0),
                                      Cylinder(np.zeros(3), np.array([0.0, 0.0, 1.0]), 1.0, 2.0),
                                      Wall(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))],
                         ids=["sphere", "cylinder", "wall"])
def test_a_nan_point_fails_the_clearance_monitor(obstacle):
    """A NaN query point gives a NaN distance, never +inf, so that the
    per-tick d_safe check fails on it."""
    world = World([obstacle, Sphere(np.array([50.0, 0.0, 0.0]), 1.0)])
    p = np.array([np.nan, 0.0, 0.0])
    d, q, i = world.nearest_obstacle(p)
    assert d != d and i == 0 and np.isnan(q).all()
    clearance = _clearance(world, p, 0.0)
    assert clearance != clearance
    record = SafetyRecord(("min_d_obs",), {"d_safe": 0.5})
    record.add(0, {"min_d_obs": 2.0})
    record.add(1, {"min_d_obs": clearance})
    assert record.first_violation == {"d_safe": 1}
    assert record.minima["min_d_obs"] != record.minima["min_d_obs"]
