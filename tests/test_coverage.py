import numpy as np
import pytest

from aeronav.coverage import (BarrierFrame, CoverageGains, CoverageSim,
                              FrameError, SweepEvent, SweepPlan, cell_centroid,
                              circumcenter, clip_halfplane, coverage_control,
                              polygon_area, polygon_second_moment,
                              voronoi_cells)

RECT_X20 = np.array([[20.0, 0.0, 0.0], [20.0, 10.0, 0.0],
                     [20.0, 10.0, 10.0], [20.0, 0.0, 10.0]])


def test_barrier_frame_rectangle_normal():
    f = BarrierFrame.from_vertices(RECT_X20)
    assert abs(abs(f.a3[0]) - 1.0) < 1e-12  # +-x normal for an x=const plane
    r = f.rotation()
    assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-10


def test_barrier_frame_origin_maps_to_zero():
    f = BarrierFrame.from_vertices(RECT_X20)
    assert np.allclose(f.to_local(RECT_X20[0]), 0.0, atol=1e-12)


def test_barrier_frame_roundtrip_identity():
    f = BarrierFrame.from_vertices(RECT_X20)
    t = f.transform_matrix()
    t_inv = np.linalg.inv(t)
    assert np.max(np.abs(t @ t_inv - np.eye(4))) < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.uniform(-20, 40, 3)
        assert np.allclose(f.to_world(f.to_local(p)), p, atol=1e-12)


def test_barrier_frame_random_polygon_planar():
    rng = np.random.default_rng(1)
    from aeronav.geom import rodrigues_matrix
    rot = rodrigues_matrix(np.array([1.0, 2.0, 0.5]) / np.linalg.norm([1.0, 2.0, 0.5]),
                           0.8)
    base = np.array([[0, 0], [4, 0], [5, 3], [2, 5], [-1, 3]], dtype=float)
    verts = (np.column_stack([base, np.zeros(5)]) @ rot.T) + np.array([3.0, -2.0, 1.0])
    f = BarrierFrame.from_vertices(verts)
    local = np.array([f.to_local(v) for v in verts])
    assert np.max(np.abs(local[:, 2])) < 1e-10


def test_barrier_frame_collinear_rejected():
    with pytest.raises(FrameError):
        BarrierFrame.from_vertices(np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float))


def test_clip_halfplane_square():
    sq = np.array([[0.0, 0], [2, 0], [2, 2], [0, 2]])
    out = clip_halfplane(sq, np.array([1.0, 0.0]), 1.0)  # keep x <= 1
    assert polygon_area(out) == pytest.approx(2.0)


def test_voronoi_two_generators_mirror_cells():
    boundary = np.array([[0.0, 0], [4, 0], [4, 4], [0, 4]])
    cells = voronoi_cells(np.array([[1.0, 2.0], [3.0, 2.0]]), boundary)
    a0, a1 = polygon_area(cells[0]), polygon_area(cells[1])
    assert a0 == pytest.approx(8.0)
    assert a1 == pytest.approx(8.0)
    # bisector at x = 2
    assert np.max(cells[0][:, 0]) <= 2.0 + 1e-9
    assert np.min(cells[1][:, 0]) >= 2.0 - 1e-9


def test_voronoi_single_generator_whole_polygon():
    boundary = np.array([[0.0, 0], [4, 0], [4, 4], [0, 4]])
    cells = voronoi_cells(np.array([[1.0, 1.0]]), boundary)
    assert polygon_area(cells[0]) == pytest.approx(16.0)


def test_voronoi_partition_area_sums():
    rng = np.random.default_rng(2)
    boundary = np.array([[0.0, 0], [10, 0], [10, 6], [0, 6]])
    gen = rng.uniform([0.5, 0.5], [9.5, 5.5], size=(12, 2))
    cells = voronoi_cells(gen, boundary)
    total = sum(polygon_area(c) for c in cells)
    assert total == pytest.approx(60.0, rel=1e-6)
    # each generator inside its own cell
    for g, c in zip(gen, cells):
        assert len(c) >= 3
        # convexity: generator inside iff on the kept side of every edge
        m, cent = cell_centroid(c)
        assert m > 0 or m < 0  # orientable


def test_voronoi_duplicate_generators_rejected():
    boundary = np.array([[0.0, 0], [4, 0], [4, 4], [0, 4]])
    with pytest.raises(ValueError):
        voronoi_cells(np.array([[1.0, 1.0], [1.0, 1.0]]), boundary)


def test_cell_centroid_unit_square():
    sq = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
    m, c = cell_centroid(sq)
    assert m == pytest.approx(1.0)
    assert np.allclose(c, [0.5, 0.5], atol=1e-12)


def test_cell_centroid_triangle():
    tri = np.array([[0.0, 0], [1, 0], [0, 1]])
    m, c = cell_centroid(tri)
    assert m == pytest.approx(0.5)
    assert np.allclose(c, [1 / 3, 1 / 3], atol=1e-12)


def test_cell_centroid_pentagon_vs_grid_oracle():
    poly = np.array([[0.0, 0], [4, 0], [5, 3], [2, 5], [-1, 3]])
    m, c = cell_centroid(poly)
    # grid-integration oracle
    xs = np.linspace(-1, 5, 1200)
    ys = np.linspace(0, 5, 1000)
    xx, yy = np.meshgrid(xs, ys)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    inside = np.ones(len(pts), dtype=bool)
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        e = b - a
        inside &= (e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])) >= -1e-12
    cell = pts[inside]
    c_grid = cell.mean(axis=0)
    assert np.allclose(c, c_grid, atol=1e-3)
    da = (xs[1] - xs[0]) * (ys[1] - ys[0])
    assert m == pytest.approx(len(cell) * da, rel=2e-3)


def test_cell_centroid_degenerate_raises():
    with pytest.raises(ValueError):
        cell_centroid(np.array([[0.0, 0], [1, 0], [2, 0]]))


def test_circumcenter_right_triangle():
    c = circumcenter(np.array([0.0, 0]), np.array([2.0, 0]), np.array([0.0, 2.0]))
    assert np.allclose(c, [1.0, 1.0], atol=1e-12)


def test_circumcenter_equidistance_identity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p1, p2, p3 = rng.uniform(-5, 5, size=(3, 2))
        u, v = p2 - p1, p3 - p1
        if abs(u[0] * v[1] - u[1] * v[0]) < 1e-3:
            continue
        c = circumcenter(p1, p2, p3)
        r1, r2, r3 = (np.linalg.norm(c - p) for p in (p1, p2, p3))
        assert r1 == pytest.approx(r2, rel=1e-9)
        assert r1 == pytest.approx(r3, rel=1e-9)


def test_second_moment_vs_grid():
    poly = np.array([[0.0, 0], [3, 0], [3, 2], [0, 2]])
    about = np.array([1.0, 0.5])
    exact = polygon_second_moment(poly, about)
    # cell-centered grid oracle
    nx, ny = 900, 600
    xs = (np.arange(nx) + 0.5) * (3.0 / nx)
    ys = (np.arange(ny) + 0.5) * (2.0 / ny)
    xx, yy = np.meshgrid(xs, ys)
    grid = np.mean((xx - about[0]) ** 2 + (yy - about[1]) ** 2) * 6.0
    assert exact == pytest.approx(grid, rel=1e-4)
    # and the analytic rectangle integral
    analytic = (2 ** 3 + 1) / 3 * 2 + (1.5 ** 3 + 0.5 ** 3) / 3 * 3
    assert exact == pytest.approx(analytic, abs=1e-12)


def test_coverage_control_zero_at_centroid():
    g = CoverageGains()
    assert np.allclose(coverage_control(np.ones(3), np.ones(3), g), 0.0)


def test_coverage_control_bound_matches_reference_value():
    g = CoverageGains(k=np.diag([2.5, 0.5, 0.5]))
    assert g.u_max == pytest.approx(2.6, abs=0.01)
    rng = np.random.default_rng(4)
    for _ in range(300):
        u = coverage_control(rng.uniform(-50, 50, 3), rng.uniform(-50, 50, 3), g)
        assert np.linalg.norm(u) <= g.u_max + 1e-9


def test_coverage_control_saturates_far():
    g = CoverageGains()
    u = coverage_control(np.zeros(3), np.array([1e6, 1e6, 1e6]), g)
    assert np.linalg.norm(u) == pytest.approx(g.u_max, rel=1e-6)


def _barrier_sim(n=20, seed=0, bounded=True):
    rng = np.random.default_rng(seed)
    q0 = np.column_stack([rng.uniform(0, 4, n), rng.uniform(0, 4, n),
                          rng.uniform(0, 2, n)])
    frame = BarrierFrame.from_vertices(RECT_X20)
    return CoverageSim(q0, frame, CoverageGains(), bounded=bounded)


def test_barrier_converges_and_cost_descends():
    sim = _barrier_sim()
    g = sim.gains
    costs = []
    err = vmax = np.inf
    for _ in range(3000):
        sim.tick()
        costs.append(sim.multicenter_cost())
        cents, _ = sim.centroids()
        err = np.max(np.linalg.norm(cents - sim.q, axis=1))
        us = np.array([coverage_control(sim.q[i], cents[i], g) for i in range(len(sim.q))])
        vmax = np.max(np.linalg.norm(us, axis=1))
        if err < 0.035 and vmax < 0.008:
            break
    assert err < 0.05
    assert vmax < 0.01
    costs = np.array(costs)
    assert np.all(np.diff(costs) <= 1e-6)  # Lloyd descent with slack
    # agents ended on the plane
    for i in range(len(sim.q)):
        assert abs(sim.frame.to_local(sim.q[i])[2]) < 0.05


def test_agents_stay_inside_own_cells():
    """After convergence, each projected position lies inside its own
    instantaneous Voronoi cell (up to the tracking-error bound)."""
    sim = _barrier_sim(n=10, seed=11)
    for _ in range(400):
        sim.tick()
    cents, cells = sim.centroids()
    for row, i in enumerate(np.nonzero(sim.active)[0]):
        cell = cells[row]
        if len(cell) < 3:
            continue
        pt = sim.frame.project(sim.q[i])
        for k in range(len(cell)):
            a, b = cell[k], cell[(k + 1) % len(cell)]
            e = b - a
            assert (e[0] * (pt[1] - a[1]) - e[1] * (pt[0] - a[0])) >= -0.05


def test_sweep_constant_velocity_consensus():
    n = 12
    rng = np.random.default_rng(5)
    q0 = np.column_stack([rng.uniform(0, 4, n), rng.uniform(0, 8, n),
                          rng.uniform(0, 8, n)])
    verts = np.array([[10.0, 0.0, 0.0], [10.0, 10.0, 0.0],
                      [10.0, 10.0, 10.0], [10.0, 0.0, 10.0]])
    frame = BarrierFrame.from_vertices(verts)
    sweep = SweepPlan(frame, g0=1.5, n_agents=n, u_max=2.6)
    # plane normal points along +-x; make sure motion goes +x
    if sweep.frame.a3[0] < 0:
        frame = BarrierFrame.from_vertices(verts[::-1])
        sweep = SweepPlan(frame, g0=1.5, n_agents=n, u_max=2.6)
    sim = CoverageSim(q0, frame, CoverageGains(), bounded=True, sweep=sweep)
    for _ in range(400):
        sim.tick()
    vels = sim.velocities()
    a3 = sim.frame.a3
    for v in vels:
        along = float(np.dot(v, a3))
        assert along == pytest.approx(1.5, abs=0.05)
        assert np.linalg.norm(v - along * a3) < 0.05


def test_sweep_speed_vs_limit_validation():
    frame = BarrierFrame.from_vertices(RECT_X20)
    with pytest.raises(ValueError):
        SweepPlan(frame, g0=5.0, u_max=2.6)


def test_sweep_lawnmower_legs():
    frame = BarrierFrame.from_vertices(RECT_X20)
    legs = [(np.array([1.0, 0, 0]), 2.0), (np.array([0.0, 1.0, 0]), 1.0)]
    plan = SweepPlan(frame, g0=1.0, legs=legs, n_agents=1)
    for _ in range(30):
        plan.step(0.1)
    # 2 s at 1 m/s along +x then 1 s along +y
    assert np.allclose(plan.frame.origin, RECT_X20[0] + [2.0, 1.0, 0.0], atol=1e-9)


def test_sweep_resize_event_and_rejection():
    frame = BarrierFrame.from_vertices(RECT_X20)
    plan = SweepPlan(frame, g0=0.0,
                     events=[SweepEvent(t=0.05, kind="resize", scale=0.5),
                             SweepEvent(t=0.1, kind="resize", scale=0.01)],
                     min_area_per_agent=1.0, n_agents=6)
    plan.step(0.06)
    area1 = abs(polygon_area(plan.frame.boundary_local))
    assert area1 == pytest.approx(25.0, rel=1e-9)  # 100 * 0.5^2
    plan.step(0.06)
    assert len(plan.rejected) == 1  # second shrink would starve the agents
    assert abs(polygon_area(plan.frame.boundary_local)) == pytest.approx(area1)


def test_agent_removal_repartitions_next_tick():
    sim = _barrier_sim(n=9, seed=7)
    for _ in range(200):
        sim.tick()
    cost_before = sim.multicenter_cost()
    sim.remove_agent(3)
    sim.tick()
    cents, cells = sim.centroids()
    assert len(cells) == 8  # survivors only, within one tick
    total = sum(polygon_area(c) for c in cells if len(c) >= 3)
    assert total == pytest.approx(100.0, rel=1e-6)


def test_tick_nan_state_raises():
    sim = _barrier_sim(n=5, seed=3)
    sim.q[2, 1] = np.nan
    with pytest.raises(FloatingPointError):
        sim.tick()


def test_queries_record_nothing_tick_records_once():
    """centroids(), velocities() and multicenter_cost() are pure queries on
    a state; the state's out-of-range events are recorded by tick(), once."""
    sim = _barrier_sim(n=12, seed=4)
    sim.r_c = 1.0
    cents, cells = sim.centroids()
    sim.velocities()
    sim.multicenter_cost()
    assert sim.events == []
    assert sim.centroids()[0] is cents
    sim.tick()
    first = list(sim.events)
    assert first and all(t == 0.0 and kind == "comm_range_violation"
                         for t, kind, _ in first)
    assert len({(d["agent"], d["neighbor"]) for _, _, d in first}) == len(first)
    sim.velocities()
    sim.centroids()
    assert sim.events == first


def test_case6_centroids_inside_shrunken_polygon():
    sim = _barrier_sim(n=6, seed=8)
    for _ in range(300):
        sim.tick()
    sim.frame = sim.frame.reshaped(scale=0.6)
    cents, cells = sim.centroids()
    local = np.array([sim.frame.to_local(c)[:2] for c in cents if np.all(np.isfinite(c))])
    bl = sim.frame.boundary_local
    n = len(bl)
    for pt in local:
        for i in range(n):
            a, b = bl[i], bl[(i + 1) % n]
            e = b - a
            assert (e[0] * (pt[1] - a[1]) - e[1] * (pt[0] - a[0])) >= -1e-6
