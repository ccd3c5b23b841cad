"""Acceptance battery: one test per release criterion, each printing a
PASS/FAIL line.  Criteria marked by scenario replicas run through the
harness; the oracle/property criterion aggregates the numeric identities
checked throughout the unit suite.
"""
import json
import time

import numpy as np

from aeronav.harness.scenarios import stock
from aeronav.harness.runner import run


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


# -- criterion 1: planar hybrid navigation ----------------------------------

def test_criterion_1_hybrid_2d_cases():
    """Static, dynamic and trap planar runs at V=1 m/s, u_max=1.5 rad/s,
    0.1 s control period: safety
    margin 0.5 m held, goals reached, the trap case replans exactly
    once, all three in under 10 s."""
    t0 = time.perf_counter()
    results = {}
    for name, cfg in (("static", stock("planar-static")),
                      ("dynamic", stock("planar-dynamic")),
                      ("trap", stock("planar-trap"))):
        results[name] = run(cfg)
    wall = time.perf_counter() - t0
    ok = all(r.passed for r in results.values()) and wall < 10.0
    detail = (f"min_d={[round(r.metrics['min_d_obs'], 3) for r in results.values()]} "
              f"replans(trap)={results['trap'].metrics['replan_count']} "
              f"wall={wall:.1f}s")
    _report("criterion-1 hybrid-2d", ok, detail)


# -- criterion 2: 3D reactive ------------------------------------------------

def test_criterion_2_reactive_3d():
    """Five-ellipsoid run with the reference parameter set: goal reached,
    clearance never below 0.95 d0, in-plane residual below 1e-6."""
    res = run(stock("reactive3d-ellipsoids"))
    ok = (res.passed and res.metrics["plane_residual"] < 1e-6)
    _report("criterion-2 reactive-3d", ok,
            f"min_d={res.metrics['min_d_obs']:.3f} "
            f"plane_residual={res.metrics['plane_residual']:.2e} "
            f"encounters={res.metrics['encounters']}")


# -- criterion 3: deformable paths -------------------------------------------

def test_criterion_3_deformable_paths():
    """Static cylinder field (gamma=0.6) and both dynamic cases (1.5, 2.5)
    keep 0.5 m clearance; the quadrotor analogue tracks the deformed
    trajectory below 5 cm RMS."""
    runs = {
        "static": run(stock("deform-static-cylinders")),
        "dyn1.5": run(stock("deform-dynamic-gamma1.5")),
        "dyn2.5": run(stock("deform-dynamic-gamma2.5")),
        "quad": run(stock("deform-quad-tracking")),
    }
    rms = runs["quad"].metrics["tracking_rms"]
    ok = all(r.passed for r in runs.values()) and rms < 0.05
    _report("criterion-3 deform-path", ok,
            f"min_d={[round(r.metrics['min_d_obs'], 3) for r in runs.values()]} "
            f"rms={rms * 100:.2f}cm")


def test_criterion_3_localism_invariant():
    """Every deformation leaves the untouched segments bit-identical."""
    from aeronav.bezier import PiecewisePath
    from aeronav.deform import DeformParams, deform, find_unsafe
    from aeronav.world import Sphere, World
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(25):
        path = PiecewisePath.straight(np.zeros(3), np.array([20.0, 0, 0]), 1.0)
        center = np.array([rng.uniform(6, 14), rng.uniform(-0.5, 0.5), 0.0])
        world = World([Sphere(center, float(rng.uniform(0.4, 1.0)))])
        params = DeformParams(safety_factor=float(rng.uniform(0.3, 1.5)))
        hit = find_unsafe(path, world, params.d_check)
        if hit is None:
            continue
        new_path, _ = deform(path, hit, params, 0.0)
        n_new = new_path.n_segments - path.n_segments + (0)
        # leading and trailing retained segments must match exactly
        k = 0
        while (k < min(path.n_segments, new_path.n_segments) and
               np.array_equal(new_path.segments[k].control, path.segments[k].control)):
            k += 1
        tail = 0
        while (tail < min(path.n_segments, new_path.n_segments) - 1 and
               np.array_equal(new_path.segments[-1 - tail].control,
                              path.segments[-1 - tail].control)):
            tail += 1
        changed_old = path.n_segments - k - tail
        ok &= changed_old >= 1           # something was replaced...
        ok &= (k + tail) >= 1            # ...and something retained verbatim
        r1, r2 = new_path.junction_residuals()
        ok &= r1 < 1e-9 and r2 < 1e-9
    _report("criterion-3 localism", ok)


# -- criterion 4: tunnel navigation -------------------------------------------

def test_criterion_4_tunnel_table():
    """All seven tunnel scenarios with the tabulated parameters complete with
    positive wall distance and monotone progress, in under 60 s total;
    the robust narrowing case keeps 0.3 m estimated wall margin."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for name in ("tunnel-a-smooth-bend", "tunnel-b-torus", "tunnel-c-helix",
                 "tunnel-d-sharp-bends", "tunnel-e-s-shape", "tunnel-f-rectangular",
                 "tunnel-g-pipeline"):
        res = run(stock(name))
        okc = res.passed and res.metrics["goal_reached"]
        ok &= okc
        details.append(f"{name[7]}:{'ok' if okc else 'FAIL'}"
                       f"({res.metrics['min_wall_distance']:.2f}m)")
    robust = run(stock("tunnel-narrowing-robust"))
    ok &= robust.passed and robust.metrics["min_wall_distance"] > 0.3
    wall = time.perf_counter() - t0
    ok &= wall < 60.0
    _report("criterion-4 tunnels", ok,
            " ".join(details) + f" robust={robust.metrics['min_wall_distance']:.2f}m "
            f"wall={wall:.1f}s")


# -- criterion 5: flocking -----------------------------------------------------

def test_criterion_5_flock_n4():
    """Four-vehicle replica reaches the goal ball with lattice separations
    5 m +- 0.5 and final speeds below 0.05 m/s."""
    res = run(stock("flock-n4"))
    ok = res.passed
    _report("criterion-5 flock-n4", ok,
            f"min_pair={res.metrics['min_pair_d']:.2f} "
            f"lattice_err={res.metrics['lattice_err']:.3f} "
            f"v_final={res.metrics['final_max_speed']:.3f}")


def test_criterion_5_flock_n20_n100():
    """Scaled replicas pass the quasi-lattice (0.5 m) and collision-free
    monitors; the n=100 run completes in under 120 s."""
    r20 = run(stock("flock-n20"))
    t0 = time.perf_counter()
    r100 = run(stock("flock-n100"))
    wall = time.perf_counter() - t0
    ok = r20.passed and r100.passed and wall < 120.0
    _report("criterion-5 flock-n20/n100", ok,
            f"lattice20={r20.metrics['lattice_err']:.3f} "
            f"lattice100={r100.metrics['lattice_err']:.3f} "
            f"min_pair100={r100.metrics['min_pair_d']:.2f} wall={wall:.1f}s")


def test_criterion_5_energy_bound():
    """100 seeded runs below the collision-energy bound never violate the
    1 m safety separation."""
    from aeronav.flocking import (FlockParams, FlockSim, collision_energy_bound,
                                  flock_energy, neighbor_lists)
    base = np.array([[0.0, 0, 0], [5.0, 0, 0], [2.5, 5 * np.sqrt(3) / 2, 0],
                     [2.5, 5 * np.sqrt(3) / 6, 5 * np.sqrt(2.0 / 3.0)]])
    params = FlockParams(k_ij=0.6, k_goal=0.0, k_obs=1.0, k_v=2.5,
                         d_ij=5.0, d_s=1.0, r_c=20.0,
                         goal=base.mean(axis=0), goal_radius=50.0)
    c_star = collision_energy_bound(params)
    violations = 0
    tested = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        q0 = base + rng.normal(0.0, 0.2, size=base.shape)
        sim = FlockSim(q0, np.zeros((4, 2)), params, rng=rng)
        sim.snapshot.nu[:, 0] = rng.normal(0.0, 0.25, size=4)
        e0 = flock_energy(sim.snapshot, params, neighbor_lists(sim.snapshot, params.r_c))
        if e0 >= c_star:
            continue
        tested += 1
        for _ in range(60):
            sim.tick()
            if sim.min_pairwise() < params.d_s:
                violations += 1
                break
    ok = violations == 0 and tested >= 60
    _report("criterion-5 energy-bound", ok,
            f"{tested} qualifying seeds, {violations} violations, c*={c_star:.3f}")


# -- criterion 6: coverage ------------------------------------------------------

def test_criterion_6_coverage():
    """Barrier (n=20) converges below 5 cm with the bounded law respecting
    |u| <= 2.6 m/s; sweep consensus within 0.05 m/s of 1.5 m/s; removal and
    deformation replicas keep the safety monitors green; the Lloyd cost
    trace never rises beyond 1e-6."""
    from aeronav.coverage import CoverageGains, coverage_control
    barrier = run(stock("coverage-barrier-n20"))
    sweep = run(stock("coverage-sweep"))
    case5 = run(stock("coverage-agent-removal"))
    case6 = run(stock("coverage-plane-deform"))
    gains = CoverageGains(k=np.diag([2.5, 0.5, 0.5]))
    rng = np.random.default_rng(0)
    bound_ok = all(
        np.linalg.norm(coverage_control(rng.uniform(-99, 99, 3),
                                        rng.uniform(-99, 99, 3), gains))
        <= 2.6 + 1e-9
        for _ in range(2000)
    )
    ok = (barrier.passed and sweep.passed and case5.passed and case6.passed
          and bound_ok)
    _report("criterion-6 coverage", ok,
            f"centroid_err={barrier.metrics['final_centroid_err']:.4f} "
            f"cost_rise={barrier.metrics['cost_max_increase']:.1e} "
            f"sweep_err={sweep.metrics['sweep_speed_err']:.3f} "
            f"u_bound={'ok' if bound_ok else 'violated'}")


# -- criterion 7: oracle and property identities --------------------------------

def test_criterion_7_numeric_identities(long_hover_state):
    """The numeric identities behind the algorithms, re-run here in one
    sweep: polygon centroid vs grid (1e-4), circumcenter equidistance,
    stitched-spline C2 residuals (1e-9), minimum-jerk boundary residuals
    (1e-9), trapezoidal knot continuity (1e-9), rotation norm preservation
    (1e-9), null-space suppression, sech^2 gradient check (1e-6), and the
    long-run SO(3) drift bound."""
    from aeronav.bezier import stitch_three_point
    from aeronav.coverage import cell_centroid, circumcenter
    from aeronav.geom import rodrigues_rotate, unit
    from aeronav.flocking import nsb_blend
    from aeronav.quadrotor import (K1, MU, TrapezoidalProfile, min_jerk_eval,
                                   min_jerk_segment)
    rng = np.random.default_rng(77)
    ok = True

    # polygon centroid vs grid integration
    poly = np.array([[0.0, 0], [4, 0], [5, 3], [2, 5], [-1, 3]])
    _, c = cell_centroid(poly)
    nx, ny = 1500, 1250
    xs = -1 + (np.arange(nx) + 0.5) * (6.0 / nx)
    ys = (np.arange(ny) + 0.5) * (5.0 / ny)
    xx, yy = np.meshgrid(xs, ys)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    inside = np.ones(len(pts), dtype=bool)
    for i in range(len(poly)):
        a, b = poly[i], poly[(i + 1) % len(poly)]
        e = b - a
        inside &= (e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])) >= 0
    ok &= bool(np.all(np.abs(pts[inside].mean(axis=0) - c) < 1e-3))

    # circumcenter identities
    ok &= bool(np.allclose(circumcenter(np.array([0.0, 0]), np.array([2.0, 0]),
                                        np.array([0.0, 2])), [1.0, 1.0], atol=1e-12))
    for _ in range(100):
        tri = rng.uniform(-5, 5, (3, 2))
        u, v = tri[1] - tri[0], tri[2] - tri[0]
        if abs(u[0] * v[1] - u[1] * v[0]) < 1e-2:
            continue
        cc = circumcenter(*tri)
        r = [np.linalg.norm(cc - p) for p in tri]
        ok &= abs(r[0] - r[1]) < 1e-9 * max(1, r[0]) and abs(r[0] - r[2]) < 1e-9 * max(1, r[0])

    # stitched-spline continuity residuals
    for _ in range(50):
        segs = stitch_three_point(*rng.standard_normal((3, 3)) * 2,
                                  *rng.standard_normal((4, 3)))
        ok &= float(np.max(np.abs(segs[0].deriv(1.0) - segs[1].deriv(0.0)))) < 1e-9
        ok &= float(np.max(np.abs(segs[0].deriv(1.0, 2) - segs[1].deriv(0.0, 2)))) < 1e-9

    # minimum-jerk boundary residuals
    for _ in range(100):
        s0, sf = rng.standard_normal(3), rng.standard_normal(3)
        tf = float(rng.uniform(0.4, 4))
        k = min_jerk_segment(s0, sf, tf)
        ok &= bool(np.all(np.abs(min_jerk_eval(s0, k, 0.0) - s0) < 1e-9))
        ok &= bool(np.all(np.abs(min_jerk_eval(s0, k, tf) - sf) < 1e-9))

    # trapezoidal knot continuity
    for _ in range(25):
        p0 = float(rng.uniform(-3, 3))
        pf = p0 + float(rng.uniform(10, 40)) * (1 if rng.random() < 0.5 else -1)
        prof = TrapezoidalProfile(p0, 0.0, 0.0, pf, 0.0, 0.0, 1.5, 2.0, 4.0)
        for tk in prof.knots[1:-1]:
            lo, hi = prof.eval(tk - 1e-10), prof.eval(tk + 1e-10)
            ok &= abs(lo[0] - hi[0]) < 1e-9 and abs(lo[1] - hi[1]) < 1e-8

    # rotation norm preservation
    for _ in range(200):
        v = rng.standard_normal(3) * rng.uniform(0.1, 9)
        out = rodrigues_rotate(v, unit(rng.standard_normal(3)),
                               float(rng.uniform(-np.pi, np.pi)))
        ok &= abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-9

    # null-space suppression identities
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    ok &= bool(np.allclose(nsb_blend(e1, e1.copy(), np.zeros(3)), e1, atol=1e-12))
    ok &= bool(np.allclose(nsb_blend(e1, e2, np.zeros(3)), e1 + e2, atol=1e-12))

    # sech^2 cancellation term is the gradient of the tanh term
    for _ in range(25):
        e_p, e_v = rng.standard_normal(3), rng.standard_normal(3)
        analytic = MU * (K1 @ (e_v * (1 / np.cosh(MU * e_p)) ** 2))
        h = 1e-6
        fd = np.zeros(3)
        for i in range(3):
            d = np.zeros(3)
            d[i] = h
            fd += (K1 @ np.tanh(MU * (e_p + d)) -
                   K1 @ np.tanh(MU * (e_p - d))) / (2 * h) * e_v[i]
        ok &= float(np.max(np.abs(analytic - fd))) < 1e-6

    # SO(3) drift over a long hover
    st = long_hover_state
    ok &= float(np.max(np.abs(st.R.T @ st.R - np.eye(3)))) < 1e-6

    _report("criterion-7 oracles", bool(ok))


# -- criterion 8: determinism ----------------------------------------------------

def test_criterion_8_determinism():
    """Representative scenarios from every family are byte-identical across
    two runs with the same seed."""
    picks = [stock("planar-trap"), stock("reactive3d-ellipsoids"),
             stock("deform-dynamic-gamma1.5"), stock("tunnel-a-smooth-bend"),
             stock("coverage-sweep")]
    ok = True
    for cfg in picks:
        a = run(cfg).log.to_csv()
        b = run(cfg).log.to_csv()
        ok &= (a == b)
    # and a multi-agent one
    cfg = stock("flock-n4")
    cfg = json.loads(json.dumps(cfg))
    cfg["duration"] = 30.0
    cfg["monitors"] = {}
    ok &= run(cfg).log.to_csv() == run(cfg).log.to_csv()
    _report("criterion-8 determinism", ok)
