"""The packed obstacle table of `World` against the per-obstacle code it
replaced, kept here as the reference: `distance`, `nearest_obstacle`,
`batch_distance` and `raycast_2d` must give the same bits on mixed worlds.
The reference bodies are the obstacles' own `distance` methods as they
were before the table became the one geometry; for the ellipsoid they are
the only check of the table's solve that does not call it."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeronav import world as world_mod
from aeronav.geom import cross3, norm, row_norms
from aeronav.harness.monitors import SafetyRecord
from aeronav.harness.runner import _clearance
from aeronav.world import (Cylinder, Ellipsoid, Moving, QueryError, Sphere, Wall,
                           World, brentq)

ORACLE = settings(max_examples=200, deadline=None, derandomize=True)
_INF = float("inf")


# -- the per-obstacle bodies -----------------------------------------------------

def ref_distance(o, p, t=0.0):
    """(distance, closest surface point) of one obstacle record to the point p."""
    p = np.asarray(p, dtype=float)
    if isinstance(o, Moving):
        off = o.velocity * t
        d, q = ref_distance(o.shape, p - off)
        return d, q + off
    if isinstance(o, Sphere):
        r = p - o.center
        rho = norm(r)
        if rho < 1e-12:
            q = o.center + np.eye(len(o.center))[0] * o.radius
        else:
            q = o.center + r * (o.radius / rho)
        return max(rho - o.radius, 0.0), q
    if isinstance(o, Cylinder):
        return _ref_cylinder(o, p)
    if isinstance(o, Ellipsoid):
        return _ref_ellipsoid(o, p)
    best, bq = _INF, None
    for a, b in zip(o.vertices[:-1], o.vertices[1:]):
        d, q = _ref_segment(p, a, b)
        if d < best:
            best, bq = d, q
    return best, bq


def _ref_cylinder(o, p):
    r = p - o.base
    h = float(np.dot(r, o.axis))
    radial = r - h * o.axis
    rho = norm(radial)
    d = float(np.hypot(max(rho - o.radius, 0.0), max(-h, h - o.height, 0.0)))
    if rho > 1e-12:
        rad_dir = radial / rho
    else:
        ref = np.zeros_like(o.axis)
        ref[int(np.argmin(np.abs(o.axis)))] = 1.0
        v = cross3(o.axis, ref)
        rad_dir = v / norm(v)
    if d == 0.0:
        gap_r = o.radius - rho
        gap_lo, gap_hi = h, o.height - h
        if gap_r <= min(gap_lo, gap_hi):
            return d, o.base + h * o.axis + o.radius * rad_dir
        if gap_lo <= gap_hi:
            return d, o.base + rho * rad_dir
        return d, o.base + o.height * o.axis + rho * rad_dir
    hc = float(np.clip(h, 0.0, o.height))
    return d, o.base + hc * o.axis + min(rho, o.radius) * rad_dir


def _ref_ellipsoid(o, p):
    q = p - o.center
    a2 = o.semi ** 2
    if np.sum((q / o.semi) ** 2) <= 1.0:
        qn = norm(q / o.semi)
        if qn < 1e-12:
            tip = np.zeros_like(o.semi)
            tip[0] = o.semi[0]
            return 0.0, tip + o.center
        return 0.0, q / qn + o.center
    terms = list(zip(a2.tolist(), q.tolist()))

    def f(s):
        total = 0.0
        for b, x in terms:
            y = b * x / (b + s)
            total += y * y / b
        return total - 1.0

    hi = float(norm(q) * np.max(o.semi) + np.max(a2))
    while f(hi) > 0.0:
        hi *= 2.0
    s = brentq(f, 0.0, hi)
    qs = a2 * q / (a2 + s)
    return norm(q - qs), qs + o.center


def _ref_segment(p, a, b):
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom < 1e-12:
        return norm(p - a), a.copy()
    s = float(np.clip(np.dot(p - a, ab) / denom, 0.0, 1.0))
    q = a + s * ab
    return norm(p - q), q


def loop_nearest(world, p, t=0.0):
    best_d, best_q, best_i = _INF, None, -1
    for i, o in enumerate(world.obstacles):
        d, q = ref_distance(o, p, t)
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
        return _batch_obstacle_distance(o.shape, pts - (o.velocity * t)[None, :], 0.0)
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
    return np.array([ref_distance(o, p, t)[0] for p in pts])


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
        return _ray_ranges(o.shape, origin - o.velocity * t, dirs, max_range, 0.0)
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


def _queries(world, rng, dim, t=0.0):
    """Random points, and each obstacle's own points at time t (see
    _shape_points)."""
    pts = list(rng.uniform(-12.0, 12.0, (6, dim)))
    for o in world.obstacles:
        pts += _obstacle_points(o, rng, t)
    return pts


def _obstacle_points(o, rng, t):
    if isinstance(o, Moving):
        return [p + o.velocity * t for p in _shape_points(o.shape, rng)]
    return _shape_points(o, rng)


def _unit(rng, dim):
    u = rng.normal(size=dim)
    return u / np.linalg.norm(u)


def _shape_points(shape, rng):
    """Points inside, outside, on the axis and at the centre of a primitive:
    a sphere's centre, interior, surface and exterior; a cylinder's axis
    (inside, on both end faces, beyond them) and points near each face,
    inside and out; an ellipsoid's centre, interior, the extensions of its
    axes (where its distance meets the nearest query's bound) and points
    just off and far off its surface; a wall's vertices and midpoints."""
    if isinstance(shape, Sphere):
        c, r = shape.center, shape.radius
        u = _unit(rng, len(c))
        return [c.copy(), c + 0.5 * r * u, c + r * u, c + 3.0 * r * u]
    if isinstance(shape, Cylinder):
        b, a, r, h = shape.base, shape.axis, shape.radius, shape.height
        radial = np.cross(a, rng.normal(size=3))
        radial /= np.linalg.norm(radial)
        pts = [b.copy(), b + 0.5 * h * a, b + h * a, b - 0.5 * a, b + (h + 1.0) * a]
        for hf, f in ((0.05, 0.2), (0.5, 0.95), (0.97, 0.1), (0.5, 0.0), (0.5, 1.5),
                      (-0.2, 1.5), (1.3, 0.5)):
            pts.append(b + hf * h * a + f * r * radial)
        return pts
    if isinstance(shape, Ellipsoid):
        c, semi = shape.center, shape.semi
        u = _unit(rng, len(c))
        pts = [c.copy(), c + 0.5 * semi * u, c + (1.0 + 1e-9) * semi * u, c + 4.0 * semi * u]
        for k, e in enumerate(np.eye(len(c))):
            pts += [c + (semi[k] + 2.0) * e, c - (semi[k] + 0.5) * e]
        return pts
    v = shape.vertices
    return list(v) + list(0.5 * (v[:-1] + v[1:]))


KINDS_2D = ("sphere", "wall", "ellipsoid")
KINDS_3D = ("sphere", "cylinder", "ellipsoid", "wall")


def _same_distance(world, i, p, t):
    got, want = world.distance(i, p, t), ref_distance(world.obstacles[i], p, t)
    assert isinstance(got[0], float) and got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]))
def test_distance_equals_the_per_obstacle_bodies(seed, dim):
    """Every kind, static and moving, at two times: each obstacle's own
    points and random ones give the reference's distance and closest point."""
    world, rng = _world(seed, dim, KINDS_2D if dim == 2 else KINDS_3D)
    for t in (0.0, 1.7):
        for i, o in enumerate(world.obstacles):
            for p in list(rng.uniform(-12.0, 12.0, (3, dim))) + _obstacle_points(o, rng, t):
                _same_distance(world, i, p, t)


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
       t=st.sampled_from([0.0, 0.7, 3.25]))
def test_nearest_and_batch_equal_the_per_obstacle_loops(seed, dim, t):
    world, rng = _world(seed, dim, KINDS_2D if dim == 2 else KINDS_3D)
    pts = _queries(world, rng, dim, t)
    for p in pts:
        _same_nearest(world, p, t)
    got = world.batch_distance(np.array(pts), t)
    assert got.tobytes() == loop_batch(world, np.array(pts), t).tobytes()


@settings(ORACLE, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
       t=st.sampled_from([0.0, 1.7]))
def test_ellipsoid_worlds_equal_the_per_obstacle_loops(seed, dim, t):
    """Worlds of ellipsoids alone, where every nearest query solves."""
    world, rng = _world(seed, dim, ("ellipsoid",))
    pts = _queries(world, rng, dim, t)
    for p in pts:
        _same_nearest(world, p, t)
    got = world.batch_distance(np.array(pts), t)
    assert got.tobytes() == loop_batch(world, np.array(pts), t).tobytes()
    _same_distance(world, len(world.obstacles) - 1, pts[-1], t)


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
    d_ell = ref_distance(ell, p)[0]
    sphere = Sphere(np.array([7.0, 10.0, 0.0]), 10.0 - d_ell - gap)
    obs = [ell, sphere] if ellipsoid_first else [sphere, ell]
    world = World(obs)
    _same_nearest(world, p, 0.0)
    world = World(obs + [Ellipsoid(np.array([7.0, -4.0 - gap, 0.0]), np.array([1.0, 4.0, 1.0]))])
    _same_nearest(world, p, 0.0)
    for i in range(3):
        _same_distance(world, i, p, 0.0)


def test_only_an_ellipsoid_that_can_win_is_solved(monkeypatch):
    """Far ellipsoids behind a near obstacle are skipped, in table order."""
    solved = []
    solve = world_mod._Ellipsoids.solve

    def counted(self, p, t, j):
        solved.append(int(self.index[j]))
        return solve(self, p, t, j)

    monkeypatch.setattr(world_mod._Ellipsoids, "solve", counted)
    near = Ellipsoid(np.array([2.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0]))
    far = [Ellipsoid(np.array([20.0 + k, 5.0, 0.0]), np.array([1.0, 2.0, 3.0])) for k in range(4)]
    d, _, i = World([near] + far).nearest_obstacle(np.zeros(3))
    assert (d, i) == (1.0, 0) and solved == [0]
    solved.clear()
    World(far + [near]).nearest_obstacle(np.zeros(3))
    assert solved[0] == 0 and solved[-1] == 4


def test_obstacles_are_a_tuple_and_unknown_shapes_are_refused():
    world = World([Sphere(np.zeros(2), 1.0)])
    assert isinstance(world.obstacles, tuple)
    with pytest.raises(TypeError):
        World([Moving(Moving(Sphere(np.zeros(2), 1.0), np.ones(2)), np.ones(2))])


NAN_KINDS = [Sphere(np.zeros(3), 1.0),
             Cylinder(np.zeros(3), np.array([0.0, 0.0, 1.0]), 1.0, 2.0),
             Ellipsoid(np.zeros(3), np.array([1.0, 2.0, 3.0])),
             Wall(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))]
NAN_IDS = ["sphere", "cylinder", "ellipsoid", "wall"]


@pytest.mark.parametrize("moving", [False, True], ids=["static", "moving"])
@pytest.mark.parametrize("obstacle", NAN_KINDS, ids=NAN_IDS)
def test_a_nan_point_has_a_nan_distance(obstacle, moving):
    """From every kind, static or moving, one obstacle's distance and the
    batch distance of a NaN point are NaN, never +inf or an error."""
    o = Moving(obstacle, np.array([0.3, -0.2, 0.1])) if moving else obstacle
    world = World([Sphere(np.array([50.0, 0.0, 0.0]), 1.0), o])
    for p in ([np.nan, 0.0, 0.0], [0.5, np.nan, np.nan], [np.nan] * 3):
        d, q = world.distance(1, np.array(p), 1.5)
        assert d != d and np.isnan(q).all()
        assert np.isnan(world.batch_distance(np.array([p, [50.0, 0.0, 0.0]]), 1.5)[0])


@pytest.mark.parametrize("obstacle", NAN_KINDS, ids=NAN_IDS)
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
