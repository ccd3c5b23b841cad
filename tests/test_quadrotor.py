import numpy as np
import pytest

from aeronav.bezier import PiecewisePath
from aeronav.deform import (RefModelState, ref_acceleration, ref_velocity,
                            reference_model_step)
from aeronav.plants import GRAVITY, QuadrotorState, step_quadrotor
from aeronav.quadrotor import (K1, K2, MU, FlatSample, QuadrotorTracker,
                               attitude_torque, flat_outputs_to_attitude_thrust,
                               position_smc)


def at_rest():
    return QuadrotorState(np.zeros(3), np.zeros(3), np.eye(3), np.zeros(3))


def hover_ref(p=(0.0, 0.0, 0.0)):
    return FlatSample(np.asarray(p, dtype=float), np.zeros(3), np.zeros(3), 0.0)


def test_smc_hover_command():
    st = at_rest()
    a = position_smc(st, hover_ref())
    assert np.allclose(a, [0, 0, GRAVITY], atol=1e-12)


def test_smc_bound():
    """|a_cmd - a_r - g e3| <= lmax(K2) sqrt(3) + mu lmax(K1) sqrt(3)
    (the sech^2 weight is <= 1, so this holds for unit-bounded velocity
    errors; larger e_v scales the second term accordingly)."""
    rng = np.random.default_rng(0)
    lim = (np.max(np.diag(K2)) + MU * np.max(np.diag(K1))) * np.sqrt(3)
    for _ in range(300):
        p_ref = rng.standard_normal(3) * 5
        v_err = rng.uniform(-1.0, 1.0, 3)
        st = QuadrotorState(rng.standard_normal(3) * 5, -v_err, np.eye(3), np.zeros(3))
        ref = FlatSample(p_ref, np.zeros(3), rng.standard_normal(3))
        a = position_smc(st, ref)
        assert np.linalg.norm(a - ref.a - GRAVITY * np.array([0, 0, 1.0])) <= lim + 1e-9
    # general states: second term scales with the velocity-error infinity norm
    for _ in range(300):
        st = QuadrotorState(rng.standard_normal(3) * 5, rng.standard_normal(3) * 3,
                            np.eye(3), np.zeros(3))
        ref = FlatSample(rng.standard_normal(3) * 5, rng.standard_normal(3),
                         rng.standard_normal(3))
        scale = max(1.0, float(np.max(np.abs(ref.v - st.v))))
        a = position_smc(st, ref)
        lim_g = (np.max(np.diag(K2)) + MU * np.max(np.diag(K1)) * scale) * np.sqrt(3)
        assert np.linalg.norm(a - ref.a - GRAVITY * np.array([0, 0, 1.0])) <= lim_g + 1e-9


def test_smc_sech_term_is_gradient_of_tanh_term():
    """The sech^2 term equals d/de_p of K1 tanh(mu e_p) applied to e_v
    (finite-difference check below 1e-6)."""
    rng = np.random.default_rng(1)
    mu = MU
    for _ in range(50):
        e_p = rng.standard_normal(3)
        e_v = rng.standard_normal(3)
        analytic = mu * (K1 @ (e_v * (1.0 / np.cosh(mu * e_p)) ** 2))
        h = 1e-6
        fd = np.zeros(3)
        for i in range(3):
            ep1, ep2 = e_p.copy(), e_p.copy()
            ep1[i] += h
            ep2[i] -= h
            fd += (K1 @ np.tanh(mu * ep1) - K1 @ np.tanh(mu * ep2)) / (2 * h) * e_v[i]
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
    st = at_rest()
    tau = attitude_torque(st, np.eye(3), np.zeros(3))
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
        tau = attitude_torque(st, r_des, np.zeros(3))
        st = step_quadrotor(st, GRAVITY, tau, 0.01)
    err = np.arccos(np.clip((np.trace(r_des.T @ st.R) - 1) / 2, -1, 1))
    assert err < np.deg2rad(0.5)


def test_tracker_closed_loop_min_jerk_rms():
    """Differential-flatness consistency: the deform-quad reference model
    along a straight path at 0.5 m/s, tracked below 2 cm RMS position error
    over 6 s."""
    goal = np.array([20.0, 10.0, 5.0])
    path = PiecewisePath.straight(np.zeros(3), goal, 1.0)
    ref = RefModelState(np.zeros(3), float(np.arctan2(goal[1], goal[0])),
                        0.0, 0.0, 0.0, 0.0, 0.0)
    tracker = QuadrotorTracker(at_rest())
    errs = []
    for _ in range(600):
        ref = reference_model_step(ref, path, 0.5, 1.0, 0.01)
        st = tracker.step(FlatSample(ref.p.copy(), ref_velocity(ref),
                                     ref_acceleration(ref)), 0.01)
        errs.append(np.linalg.norm(ref.p - st.p))
    rms = float(np.sqrt(np.mean(np.square(errs))))
    assert rms < 0.02


def test_thrust_positive_under_tilt():
    st = at_rest()
    a = np.array([3.0, -2.0, GRAVITY])
    t, _ = flat_outputs_to_attitude_thrust(a, 0.3, st.R)
    assert t > 0.0
