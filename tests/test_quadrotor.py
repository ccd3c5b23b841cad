import numpy as np
import pytest

from aeronav.plants import GRAVITY, QuadrotorState, step_quadrotor
from aeronav.quadrotor import (FlatSample, FlatnessGains, InfeasibleProfile,
                               QuadrotorTracker, TrapezoidalProfile,
                               attitude_torque, flat_outputs_to_attitude_thrust,
                               min_jerk_eval, min_jerk_segment,
                               min_jerk_trajectory, position_smc)

G = FlatnessGains()


def hover_ref(p=(0.0, 0.0, 0.0)):
    return FlatSample(np.asarray(p, dtype=float), np.zeros(3), np.zeros(3), 0.0)


def test_smc_hover_command():
    st = QuadrotorState.hover()
    a = position_smc(st, hover_ref(), G)
    assert np.allclose(a, [0, 0, GRAVITY], atol=1e-12)


def test_smc_bound():
    """|a_cmd - a_r - g e3| <= lmax(K2) sqrt(3) + mu lmax(K1) sqrt(3)
    (the sech^2 weight is <= 1, so this holds for unit-bounded velocity
    errors; larger e_v scales the second term accordingly)."""
    rng = np.random.default_rng(0)
    lim = (np.max(np.diag(G.k2)) + G.mu * np.max(np.diag(G.k1))) * np.sqrt(3)
    for _ in range(300):
        p_ref = rng.standard_normal(3) * 5
        v_err = rng.uniform(-1.0, 1.0, 3)
        st = QuadrotorState(rng.standard_normal(3) * 5, -v_err, np.eye(3), np.zeros(3))
        ref = FlatSample(p_ref, np.zeros(3), rng.standard_normal(3))
        a = position_smc(st, ref, G)
        assert np.linalg.norm(a - ref.a - GRAVITY * np.array([0, 0, 1.0])) <= lim + 1e-9
    # general states: second term scales with the velocity-error infinity norm
    for _ in range(300):
        st = QuadrotorState(rng.standard_normal(3) * 5, rng.standard_normal(3) * 3,
                            np.eye(3), np.zeros(3))
        ref = FlatSample(rng.standard_normal(3) * 5, rng.standard_normal(3),
                         rng.standard_normal(3))
        scale = max(1.0, float(np.max(np.abs(ref.v - st.v))))
        a = position_smc(st, ref, G)
        lim_g = (np.max(np.diag(G.k2)) + G.mu * np.max(np.diag(G.k1)) * scale) * np.sqrt(3)
        assert np.linalg.norm(a - ref.a - GRAVITY * np.array([0, 0, 1.0])) <= lim_g + 1e-9


def test_smc_sech_term_is_gradient_of_tanh_term():
    """The sech^2 term equals d/de_p of K1 tanh(mu e_p) applied to e_v
    (finite-difference check below 1e-6)."""
    rng = np.random.default_rng(1)
    mu = G.mu
    for _ in range(50):
        e_p = rng.standard_normal(3)
        e_v = rng.standard_normal(3)
        analytic = mu * (G.k1 @ (e_v * (1.0 / np.cosh(mu * e_p)) ** 2))
        h = 1e-6
        fd = np.zeros(3)
        for i in range(3):
            ep1, ep2 = e_p.copy(), e_p.copy()
            ep1[i] += h
            ep2[i] -= h
            fd += (G.k1 @ np.tanh(mu * ep1) - G.k1 @ np.tanh(mu * ep2)) / (2 * h) * e_v[i]
        assert np.max(np.abs(analytic - fd)) < 1e-6


def test_flat_outputs_hover_identity():
    t, r_des = flat_outputs_to_attitude_thrust(GRAVITY * np.array([0, 0, 1.0]), 0.0,
                                               np.eye(3))
    assert t == pytest.approx(GRAVITY)
    assert np.allclose(r_des, np.eye(3), atol=1e-12)


def test_flat_outputs_orthonormal_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = rng.standard_normal(3) * 4 + np.array([0, 0, GRAVITY])
        if np.linalg.norm(a) < 1e-3:
            continue
        _, r = flat_outputs_to_attitude_thrust(a, float(rng.uniform(-np.pi, np.pi)),
                                               np.eye(3))
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-10
        assert np.allclose(r[:, 2], a / np.linalg.norm(a), atol=1e-12)


def test_flat_outputs_tilt_oracle():
    """a_cmd = g e3 + 1 x-hat: pitch angle equals atan(1/g)."""
    a = np.array([1.0, 0.0, GRAVITY])
    _, r = flat_outputs_to_attitude_thrust(a, 0.0, np.eye(3))
    z_b = r[:, 2]
    tilt = np.arccos(np.clip(z_b[2], -1, 1))
    assert tilt == pytest.approx(np.arctan(1.0 / GRAVITY), abs=1e-12)


def test_attitude_torque_zero_at_reference():
    st = QuadrotorState.hover()
    tau = attitude_torque(st, np.eye(3), np.zeros(3), G)
    assert np.allclose(tau, 0.0)


def test_attitude_error_antisymmetry():
    from aeronav.geom import rodrigues_matrix, vee
    rng = np.random.default_rng(3)
    for _ in range(50):
        r1 = rodrigues_matrix(np.array([0, 0, 1.0]), float(rng.uniform(-1, 1)))
        r2 = rodrigues_matrix(np.array([0, 1.0, 0]), float(rng.uniform(-1, 1)))
        e12 = 0.5 * vee(r1.T @ r2 - r2.T @ r1)
        e21 = 0.5 * vee(r2.T @ r1 - r1.T @ r2)
        assert np.allclose(e12, -e21, atol=1e-12)


def test_attitude_loop_converges_from_roll_error():
    from aeronav.geom import rodrigues_matrix
    st = QuadrotorState(np.zeros(3), np.zeros(3),
                        rodrigues_matrix(np.array([1.0, 0, 0]), np.deg2rad(30)),
                        np.zeros(3))
    r_des = np.eye(3)
    for _ in range(300):
        tau = attitude_torque(st, r_des, np.zeros(3), G)
        st = step_quadrotor(st, GRAVITY, tau, 0.01)
    err = np.arccos(np.clip((np.trace(r_des.T @ st.R) - 1) / 2, -1, 1))
    assert err < np.deg2rad(0.5)


def test_min_jerk_zero_move():
    k = min_jerk_segment((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 2.0)
    assert np.allclose(k, 0.0, atol=1e-12)


def test_min_jerk_boundary_residuals():
    rng = np.random.default_rng(4)
    for _ in range(100):
        s0 = rng.standard_normal(3)
        sf = rng.standard_normal(3)
        tf = float(rng.uniform(0.5, 5.0))
        k = min_jerk_segment(s0, sf, tf)
        start = min_jerk_eval(s0, k, 0.0)
        end = min_jerk_eval(s0, k, tf)
        assert np.allclose(start, s0, atol=1e-9)
        assert np.allclose(end, sf, atol=1e-9)


def test_min_jerk_rest_to_rest_midpoint_velocity():
    """Unit rest-to-rest displacement in unit time peaks at 15/8 velocity."""
    k = min_jerk_segment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1.0)
    _, v, _ = min_jerk_eval((0.0, 0.0, 0.0), k, 0.5)
    assert v == pytest.approx(15.0 / 8.0, abs=1e-9)


def test_min_jerk_optimality_against_perturbed_polynomials():
    """Jerk cost of the quintic is no worse than degree-7 perturbations
    satisfying the same boundary conditions (numeric optimization oracle)."""
    k = min_jerk_segment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1.0)

    def jerk_cost(coeffs):
        # position polynomial coefficients highest-first over [0, 1]
        ts = np.linspace(0, 1, 2001)
        d3 = np.polyder(np.poly1d(coeffs), 3)
        return np.trapezoid(d3(ts) ** 2, ts)

    # bump polynomial t^3 (1-t)^3 has zero value/velocity/acceleration at
    # both ends, so quintic + eps*bump meets the same boundary conditions
    bump = np.poly1d([-1.0, 3.0, -3.0, 1.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(5)
    quintic = np.poly1d([k[0] / 120.0, k[1] / 24.0, k[2] / 6.0, 0.0, 0.0, 0.0])
    c0 = jerk_cost(quintic.coefficients)
    for _ in range(50):
        eps = float(rng.uniform(-0.5, 0.5))
        perturbed = np.polyadd(quintic, eps * bump)
        assert jerk_cost(perturbed.coefficients) >= c0 - 1e-9


def test_trapezoidal_zero_move():
    prof = TrapezoidalProfile(1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 2.0, 5.0)
    assert prof.duration == 0.0
    assert prof.eval(0.0)[0] == 1.0
    assert all(abs(x) < 1e-12 for x in prof.eval(0.0)[1:])


def test_trapezoidal_knot_continuity():
    """Positions/velocities/accelerations continuous at the knots to 1e-9
    for feasible random rest-to-rest moves."""
    rng = np.random.default_rng(6)
    for _ in range(50):
        p0 = float(rng.uniform(-5, 5))
        pf = p0 + float(rng.uniform(8.0, 40.0)) * (1 if rng.random() < 0.5 else -1)
        prof = TrapezoidalProfile(p0, 0.0, 0.0, pf, 0.0, 0.0,
                                  v_m=1.5, a_m=2.0, j_m=4.0)
        for tk in prof.knots[1:-1]:
            before = prof.eval(tk - 1e-10)
            after = prof.eval(tk + 1e-10)
            assert abs(before[0] - after[0]) < 1e-9
            assert abs(before[1] - after[1]) < 1e-8
            assert abs(before[2] - after[2]) < 1e-7
        # endpoints honored
        assert prof.eval(0.0)[0] == pytest.approx(p0, abs=1e-9)
        assert prof.eval(prof.duration)[0] == pytest.approx(pf, abs=1e-9)
        assert prof.eval(prof.duration)[1] == pytest.approx(0.0, abs=1e-9)


def test_trapezoidal_limits_and_cruise():
    prof = TrapezoidalProfile(0.0, 0.0, 0.0, 30.0, 0.0, 0.0,
                              v_m=1.5, a_m=2.0, j_m=4.0)
    assert prof.dts[3] > 0.0  # cruise interval exists for the long move
    ts = np.linspace(0, prof.duration, 4000)
    vals = np.array([prof.eval(t) for t in ts])
    assert np.max(np.abs(vals[:, 1])) <= 1.5 + 1e-9
    assert np.max(np.abs(vals[:, 2])) <= 2.0 + 1e-9
    assert np.max(np.abs(vals[:, 3])) <= 4.0 + 1e-9
    # cruise at v_m
    mid = vals[np.argmax(vals[:, 1])]
    assert mid[1] == pytest.approx(1.5, abs=1e-9)


def test_trapezoidal_infeasible_names_interval():
    with pytest.raises(InfeasibleProfile) as err:
        # cruise speed unreachable in so short a move
        TrapezoidalProfile(0.0, 0.0, 0.0, 0.05, 0.0, 0.0, v_m=5.0, a_m=1.0, j_m=1.0)
    assert err.value.interval in range(1, 8)


def test_tracker_closed_loop_min_jerk_rms():
    """Differential-flatness consistency: min-jerk trajectory at modest speed
    tracked below 2 cm RMS position error."""
    traj = min_jerk_trajectory(np.zeros(3), np.zeros(3), np.zeros(3),
                               np.array([2.0, 1.0, 0.5]), np.zeros(3), np.zeros(3),
                               t_f=6.0, dt=0.01)
    tracker = QuadrotorTracker(QuadrotorState.hover())
    errs = []
    for ref in traj:
        st = tracker.step(ref, 0.01)
        errs.append(np.linalg.norm(ref.p - st.p))
    rms = float(np.sqrt(np.mean(np.square(errs))))
    assert rms < 0.02


def test_thrust_positive_under_tilt():
    st = QuadrotorState.hover()
    a = np.array([3.0, -2.0, GRAVITY])
    t, _ = flat_outputs_to_attitude_thrust(a, 0.3, st.R)
    assert t > 0.0
