import numpy as np
import pytest

from aeronav.flocking import (FlockParams, FlockSim, FlockSnapshot,
                              collision_energy_bound, flock_energy,
                              flocking_control, goal_force, heading_angles,
                              neighbor_lists, nsb_blend, sigmoid_gate,
                              spacing_force)
from aeronav.plants import flock_direction
from aeronav.world import Sphere, World

P4 = FlockParams(k_ij=0.6, k_goal=0.5, k_obs=1.0, k_v=2.5,
                 d_ij=5.0, d_s=1.0, r_c=20.0,
                 goal=np.array([50.0, 50.0, 80.0]), goal_radius=10.0,
                 big_c=5.5)


def snap(positions):
    q = np.asarray(positions, dtype=float)
    n, m = q.shape
    return FlockSnapshot(q, np.zeros((n, m - 1)), np.zeros((n, m)))


def test_spacing_force_zero_at_desired_distance():
    s = snap([[0.0, 0, 0], [5.0, 0, 0]])
    nb = neighbor_lists(s, 20.0)
    f = spacing_force(0, s, nb[0], P4)
    assert np.allclose(f, 0.0, atol=1e-12)


def test_spacing_force_attracts_and_repels():
    s = snap([[0.0, 0, 0], [8.0, 0, 0]])
    nb = neighbor_lists(s, 20.0)
    f = spacing_force(0, s, nb[0], P4)
    assert f[0] > 0.0  # too far: pull toward the neighbor
    s2 = snap([[0.0, 0, 0], [2.0, 0, 0]])
    f2 = spacing_force(0, s2, neighbor_lists(s2, 20.0)[0], P4)
    assert f2[0] < 0.0  # too close: push away


def test_equilateral_lattice_equilibrium():
    d = 5.0
    pts = [[0.0, 0, 0], [d, 0, 0], [d / 2, d * np.sqrt(3) / 2, 0]]
    s = snap(pts)
    nb = neighbor_lists(s, 20.0)
    for i in range(3):
        f = spacing_force(i, s, nb[i], P4)
        assert np.allclose(f, 0.0, atol=1e-12)


def test_goal_force_vanishes_inside_ball():
    s = snap([[48.0, 50.0, 80.0]])  # 2 m from center, radius 10
    f = goal_force(0, s, P4)
    assert np.linalg.norm(f) < P4.k_goal * 0.01


def test_goal_force_outside_points_at_goal():
    s = snap([[0.0, 0, 0]])
    f = goal_force(0, s, P4)
    assert np.linalg.norm(f) == pytest.approx(P4.k_goal, rel=1e-3)
    assert np.dot(f, P4.goal) > 0


def test_sigmoid_gate_tail():
    # 3/gamma inside the boundary: gate below 1 percent
    assert sigmoid_gate(-5.0, 1.0) < 0.01
    assert sigmoid_gate(5.0, 1.0) > 0.99


def test_nsb_parallel_suppressed():
    e1 = np.array([1.0, 0, 0])
    out = nsb_blend(e1, e1.copy(), np.zeros(3))
    assert np.allclose(out, e1, atol=1e-12)


def test_nsb_orthogonal_passes():
    e1 = np.array([1.0, 0, 0])
    e2 = np.array([0.0, 1.0, 0])
    out = nsb_blend(e1, e2, np.zeros(3))
    assert np.allclose(out, e1 + e2, atol=1e-12)


def test_nsb_zero_inputs_identity_projection():
    f3 = np.array([0.3, -0.2, 0.5])
    out = nsb_blend(np.zeros(3), np.zeros(3), f3)
    assert np.allclose(out, f3, atol=1e-12)


def test_nsb_zero_blend_implies_all_zero():
    """Randomized search for a counterexample of the separation property:
    f~ ~ 0 must force every component force ~ 0."""
    rng = np.random.default_rng(7)
    for _ in range(3000):
        f1, f2, f3 = rng.standard_normal((3, 3))
        out = nsb_blend(f1, f2, f3)
        if np.linalg.norm(out) < 1e-9:
            assert np.linalg.norm(f1) < 1e-8
            assert np.linalg.norm(f2) < 1e-8
            assert np.linalg.norm(f3) < 1e-8
    # and directly: opposing forces that would cancel in a plain sum do not
    f1 = np.array([1.0, 0, 0])
    f2 = np.array([-1.0, 0, 0])
    f3 = np.array([0.0, 0, 0])
    out = nsb_blend(f1, f2, f3)
    assert np.linalg.norm(out) == pytest.approx(1.0)


def test_control_zero_at_rest_aligned():
    a, alpha = flocking_control(0.0, np.zeros(2), np.zeros(2), np.zeros(3),
                                np.array([1.0, 0, 0]), np.zeros(2), np.zeros(2),
                                np.zeros(2), P4)
    assert a == 0.0
    assert np.allclose(alpha, 0.0)


def test_control_bounds_random():
    """Remark bounds: |a| <= sum k_ij + k_goal + k_obs + k_v and
    |alpha| <= |theta_ddot_f| + (lmax K1 + lmax K2) sqrt(m)."""
    rng = np.random.default_rng(8)
    n_neighbors = 3
    a_lim = n_neighbors * P4.k_ij + P4.k_goal + P4.k_obs + P4.k_v
    for _ in range(10_000):
        f_parts = rng.standard_normal((3, 3))
        f1 = f_parts[0] / max(np.linalg.norm(f_parts[0]), 1.0) * P4.k_obs
        f2 = f_parts[1] / max(np.linalg.norm(f_parts[1]), 1.0) * (n_neighbors * P4.k_ij)
        f3 = f_parts[2] / max(np.linalg.norm(f_parts[2]), 1.0) * P4.k_goal
        f_t = nsb_blend(f1, f2, f3)
        r = f_parts[0] if np.linalg.norm(f_parts[0]) > 1e-9 else np.array([1.0, 0, 0])
        r = r / np.linalg.norm(r)
        th_ddot = rng.uniform(-2, 2, 2)
        a, alpha = flocking_control(float(rng.uniform(-3, 3)), rng.uniform(-np.pi, np.pi, 2),
                                    rng.standard_normal(2), f_t, r,
                                    rng.uniform(-np.pi, np.pi, 2),
                                    rng.standard_normal(2), th_ddot, P4)
        assert abs(a) <= a_lim + 1e-9
        alpha_lim = np.linalg.norm(th_ddot) + (0.25 + 2.0) * np.sqrt(2) + 1e-9
        assert np.linalg.norm(alpha) <= alpha_lim


def test_damping_condition():
    assert P4.damping_condition_ok(max_neighbors=3)   # 0.5 + 1.8 < 2.5
    assert not P4.damping_condition_ok(max_neighbors=4)


def test_params_validation():
    with pytest.raises(ValueError):
        FlockParams(d_ij=1.0, d_s=2.0)


def test_heading_angles_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(100):
        f = rng.standard_normal(3)
        th = heading_angles(f)
        r = np.array([np.cos(th[0]) * np.cos(th[1]),
                      np.cos(th[0]) * np.sin(th[1]),
                      np.sin(th[0])])
        assert np.allclose(r, f / np.linalg.norm(f), atol=1e-12)


def test_four_agent_replica_reaches_goal():
    """Reference 4-vehicle setup: reaches the goal ball, keeps pairwise
    distance above the safety margin, settles into the 5 m lattice and
    stops."""
    rng = np.random.default_rng(42)
    q0 = rng.uniform(0.0, 20.0, size=(4, 3))
    sim = FlockSim(q0, np.zeros((4, 2)), P4,
                   world=World([Sphere(np.array([27.0, 27.0, 45.0]), 2.0)]),
                   rng=rng)
    min_pair = np.inf
    converged = False
    consensus_window = []   # velocity-vector spread once the lattice holds
    lattice_streak = 0
    for _ in range(14000):   # cruise speed is ~0.2 m/s by the gain design
        sim.tick()
        min_pair = min(min_pair, sim.min_pairwise())
        q = sim.snapshot.q
        seps = [np.linalg.norm(q[i] - q[j]) for i in range(4) for j in range(i + 1, 4)]
        if max(abs(s - P4.d_ij) for s in seps) < 0.1:
            lattice_streak += 1
        else:
            lattice_streak = 0
        gd = np.linalg.norm(q - P4.goal, axis=1)
        in_transit = np.min(gd) > P4.goal_radius + 3.0
        clear_of_obstacle = min(
            sim.world.nearest_obstacle(q[i], sim.t)[0] for i in range(4)) > P4.big_c
        if lattice_streak > 50 and in_transit and clear_of_obstacle:
            # lattice held for 5 s in plain transit (avoidance excluded)
            vels = np.array([sim.snapshot.nu[i, 0] * flock_direction(sim.snapshot.theta[i])
                             for i in range(4)])
            spread = max(np.linalg.norm(vels[i] - vels[j])
                         for i in range(4) for j in range(i + 1, 4))
            consensus_window.append(spread)
        # the sigmoid goal gate is soft: membership judged with 0.5 m slack
        if (np.all(gd <= P4.goal_radius + 0.5)
                and np.max(sim.speeds()) < 0.05):
            converged = True
            break
    q = sim.snapshot.q
    assert converged
    assert min_pair >= P4.d_s
    assert np.max(sim.speeds()) < 0.05
    # steady separations settle onto the lattice spacing
    dists = [np.linalg.norm(q[i] - q[j]) for i in range(4) for j in range(i + 1, 4)]
    for d in dists:
        assert abs(d - P4.d_ij) <= 0.5
    # velocity consensus holds at convergence (the asymptotic claim); the
    # in-transit vector spread is bounded below by the convergent goal
    # geometry (~v*d_ij/r) plus a slow lattice tumble, so it is reported
    # rather than asserted
    vels = np.array([sim.snapshot.nu[i, 0] * flock_direction(sim.snapshot.theta[i])
                     for i in range(4)])
    end_spread = max(np.linalg.norm(vels[i] - vels[j])
                     for i in range(4) for j in range(i + 1, 4))
    assert end_spread < 0.05
    assert consensus_window, "expected some in-transit lattice phase"
    print(f"in-transit velocity spread (median): {np.median(consensus_window):.3f} m/s")


def test_energy_bound_corollary_runs():
    """100 seeded low-energy perturbations of a lattice: the pairwise
    safety margin d_s is never violated."""
    c_star = collision_energy_bound(P4)
    base = np.array([[0.0, 0, 0], [5.0, 0, 0], [2.5, 5 * np.sqrt(3) / 2, 0],
                     [2.5, 5 * np.sqrt(3) / 6, 5 * np.sqrt(2.0 / 3.0)]])
    params = FlockParams(k_ij=0.6, k_goal=0.0, k_obs=1.0, k_v=2.5,
                         d_ij=5.0, d_s=1.0, r_c=20.0,
                         goal=base.mean(axis=0), goal_radius=50.0)
    violations = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        q0 = base + rng.normal(0.0, 0.2, size=base.shape)
        sim = FlockSim(q0, np.zeros((4, 2)), params, rng=rng)
        v0 = rng.normal(0.0, 0.25, size=4)
        sim.snapshot.nu[:, 0] = v0
        nb = neighbor_lists(sim.snapshot, params.r_c)
        e0 = flock_energy(sim.snapshot, params, nb)
        if e0 >= c_star:
            continue  # sample outside the corollary's premise
        for _ in range(60):
            sim.tick()
            if sim.min_pairwise() < params.d_s:
                violations += 1
                break
    assert violations == 0


def test_flocking_queries_each_state_once(monkeypatch):
    """The control law and the clearance scan share one nearest-obstacle
    query per agent and state: flock-n4 over 200 ticks queries its 201
    states, 804 calls, where querying per reader took 1,600."""
    from aeronav.harness.runner import run
    from aeronav.harness.scenarios import stock
    calls = []
    query = World.nearest_obstacle

    def counted(self, *args, **kwargs):
        calls.append(1)
        return query(self, *args, **kwargs)

    monkeypatch.setattr(World, "nearest_obstacle", counted)
    cfg = stock("flock-n4")
    cfg["duration"] = 20.0
    res = run(cfg)
    assert res.log.records[-1]["tick"] == 199
    assert len(calls) == 4 * 201
