"""Hardy-experiment tests: state prep, settings, probabilities, classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardysim.engine import (
    FLAGGED_OUTCOME,
    alice_steps,
    bob_steps,
    experiment_distributions,
)
from hardysim.hardy import (
    CLASSIFICATION_TOL,
    analytic_q,
    chi_of,
    classify,
    concurrence,
    optimal_angles,
    q_max,
)
from hardysim.noise import NoiseModel
from hardysim.selftest import prepared_psi

DEG = math.radians
SQ2 = 1.0 / math.sqrt(2.0)
QUIET = NoiseModel.none()
EYE2 = np.eye(2)


def prepared_rho(theta, phi):
    """Noiseless prepared density matrix |psi><psi|, psi as `validate` builds it."""
    psi = prepared_psi(theta, phi)
    return np.outer(psi, psi.conj())


def setting_matrix(steps):
    """The 2x2 product of one party's setting steps, later gates on the left."""
    product = EYE2
    for _, u in steps:
        product = u @ product
    return product


def prepared_amplitudes(theta, phi):
    """Amplitudes of the pure prepared state, phase fixed by the real |00> entry."""
    rho = prepared_rho(theta, phi)
    return rho[:, 0] / math.sqrt(rho[0, 0].real)


def ideal_distributions(theta, phi):
    """Noiseless (4, 4) distributions: experiment (a1b1, a2b1, a1b2, a2b2), outcome 2a + b."""
    return experiment_distributions([theta], [phi], QUIET)[0]


def hardy_probabilities(theta, phi):
    """The four Hardy probabilities: the three zero conditions, then q."""
    return ideal_distributions(theta, phi)[range(4), FLAGGED_OUTCOME]


def closed_form_amplitudes(theta, phi):
    """Oracle: the prepared state written out from its closed form."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c, s, c, s * np.exp(2j * phi)]) / math.sqrt(2.0)


def solve_chi_bisect(theta, phi):
    """Oracle: solve cot(chi) = tan(theta) cos(phi) on (0, pi) by bisection."""
    rhs = math.tan(theta) * math.cos(phi)
    lo, hi = 1e-12, math.pi - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 / math.tan(mid) > rhs:  # cot decreases on (0, pi)
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestChi:
    def test_theta_zero_gives_half_pi(self):
        for phi in (0.0, 0.4, 2.0, -1.3):
            assert abs(chi_of(0.0, phi) - math.pi / 2) < 1e-12

    def test_fixed_point_at_optimal_angle(self):
        a = DEG(51.827)
        assert abs(math.degrees(chi_of(a, a)) - 51.827) < 0.01

    def test_45_45_value(self):
        got = math.degrees(chi_of(DEG(45), DEG(45)))
        oracle = math.degrees(solve_chi_bisect(DEG(45), DEG(45)))
        assert abs(got - 54.7356) < 1e-3
        assert abs(got - oracle) < 1e-9

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(13)
        for theta, phi in rng.uniform(0.05, 1.5, (50, 2)):
            assert abs(chi_of(theta, phi) - solve_chi_bisect(theta, phi)) < 1e-9

    @given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
    def test_chi_in_open_interval(self, theta, phi):
        assert 0.0 < chi_of(theta, phi) < math.pi

    def test_singular_theta_flagged(self):
        # at theta = pi/2 chi takes the continuous limit instead of failing
        assert chi_of(math.pi / 2, 0.3) < 1e-10  # cos(phi) > 0: the 0 limit
        assert chi_of(math.pi / 2, 3.0) > math.pi - 1e-10


class TestPrepareState:
    def test_theta_zero_row(self):
        amps = prepared_amplitudes(0.0, 1.234)
        np.testing.assert_allclose(amps, [SQ2, 0, SQ2, 0], atol=1e-12)

    def test_mes_row(self):
        amps = prepared_amplitudes(DEG(45), DEG(90))
        np.testing.assert_allclose(amps, [0.5, 0.5, 0.5, -0.5], atol=1e-12)

    def test_theta_90_row(self):
        rho = prepared_rho(DEG(90), DEG(0))
        amps = np.array([0, SQ2, 0, SQ2])
        np.testing.assert_allclose(rho, np.outer(amps, amps), atol=1e-12)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(14)
        for theta, phi in rng.uniform(0, math.pi, (50, 2)):
            amps = closed_form_amplitudes(theta, phi)
            got = prepared_rho(theta, phi)
            np.testing.assert_allclose(got, np.outer(amps, amps.conj()), atol=1e-12)


class TestMeasurementSettings:
    def test_b1_is_identity(self):
        rot = setting_matrix(bob_steps(1, 0.3, 0.9))
        np.testing.assert_allclose(rot, EYE2, atol=1e-15)

    def test_a1_is_quarter_beam_splitter(self):
        rot = setting_matrix(alice_steps(1, 0.3))
        oracle = SQ2 * np.array([[1, -1], [1, 1]])
        np.testing.assert_allclose(rot, oracle, atol=1e-15)

    def test_settings_act_on_their_party(self):
        assert {qubit for qubit, _ in alice_steps(1, 0.3) + alice_steps(2, 0.3)} == {1}
        assert {qubit for qubit, _ in bob_steps(1, 0.3, 0.9) + bob_steps(2, 0.3, 0.9)} == {0}

    def test_a2_matches_product_oracle(self):
        rng = np.random.default_rng(15)
        for phi in rng.uniform(0, 2 * math.pi, 25):
            rot = setting_matrix(alice_steps(2, phi))
            oracle = SQ2 * np.array([[1, -np.exp(-2j * phi)], [np.exp(2j * phi), 1]])
            np.testing.assert_allclose(rot, oracle, atol=1e-12)

    def test_b2_matches_product_oracle(self):
        rng = np.random.default_rng(16)
        for theta, phi in rng.uniform(0.1, 1.4, (25, 2)):
            rot = setting_matrix(bob_steps(2, phi, chi_of(theta, phi)))
            chi = solve_chi_bisect(theta, phi)
            oracle = np.array(
                [
                    [math.cos(chi), -math.sin(chi) * np.exp(-1j * phi)],
                    [math.sin(chi) * np.exp(1j * phi), math.cos(chi)],
                ]
            )
            np.testing.assert_allclose(rot, oracle, atol=1e-9)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            alice_steps(3, 0.1)
        with pytest.raises(ValueError):
            bob_steps(0, 0.1, 0.1)


class TestJointProbabilities:
    def test_first_hardy_equation_vanishes(self):
        # the |00> amplitude after a1 (x) b1 cancels: (c - c)/2 = 0
        rng = np.random.default_rng(17)
        for theta, phi in rng.uniform(0.1, 1.5, (30, 2)):
            assert ideal_distributions(theta, phi)[0, 0] <= 1e-12

    def test_q_at_optimum(self):
        p = ideal_distributions(DEG(51.827), DEG(51.827))[3, 0]
        assert abs(p - 0.09017) < 1e-4

    def test_q_zero_for_mes(self):
        assert ideal_distributions(DEG(45), DEG(90))[3, 0] <= 1e-12

    def test_distributions_sum_to_one(self):
        rng = np.random.default_rng(18)
        theta, phi = rng.uniform(0, math.pi, (2, 20))
        dists = experiment_distributions(theta, phi, QUIET)
        assert np.max(np.abs(dists.sum(axis=-1) - 1.0)) < 1e-10

    def test_hardy_vector_consistent_with_joint(self):
        # a batch gives each point exactly the distributions it gets alone
        rng = np.random.default_rng(22)
        theta, phi = rng.uniform(0, math.pi, (2, 6))
        noise = NoiseModel.default_profile()
        batch = experiment_distributions(theta, phi, noise)
        for k in range(6):
            alone = experiment_distributions([theta[k]], [phi[k]], noise)
            np.testing.assert_array_equal(batch[k], alone[0])


class TestHardyVector:
    def test_45_45(self):
        vec = hardy_probabilities(DEG(45), DEG(45))
        assert max(vec[:3]) <= 1e-12
        assert abs(vec[3] - 0.0833) < 1e-4

    def test_30_60(self):
        vec = hardy_probabilities(DEG(30), DEG(60))
        assert abs(vec[3] - 0.0433) < 1e-4

    def test_product_state_all_zero(self):
        assert max(hardy_probabilities(0.0, 0.9)) <= 1e-12

    def test_zero_equations_on_grid(self):
        axis = np.radians(np.arange(0, 181, 10))
        theta, phi = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
        dists = experiment_distributions(theta, phi, QUIET)
        assert np.max(dists[:, range(3), FLAGGED_OUTCOME[:3]]) <= 1e-12


class TestAnalyticQ:
    KNOWN = [
        (45, 90, 0.0, 1e-12),
        (0, 0, 0.0, 1e-12),
        (90, 0, 0.0, 1e-12),
        (45, 0, 0.0, 1e-12),
        (90, 45, 0.0, 1e-12),
        (45, 45, 0.0833, 1e-4),
        (55, 55, 0.0886, 1e-4),
        (30, 60, 0.0433, 1e-4),
        (60, 30, 0.0433, 1e-4),
        (10, 80, 0.00088, 5e-5),
        (80, 10, 0.00088, 5e-5),
    ]

    @pytest.mark.parametrize("theta_deg,phi_deg,expect,tol", KNOWN)
    def test_known_values(self, theta_deg, phi_deg, expect, tol):
        assert abs(analytic_q(DEG(theta_deg), DEG(phi_deg)) - expect) < tol

    def test_phi_90_always_zero(self):
        for theta_deg in range(1, 90):
            assert analytic_q(DEG(theta_deg), DEG(90)) <= 1e-12

    def test_swap_symmetry(self):
        rng = np.random.default_rng(19)
        for theta, phi in rng.uniform(0, math.pi, (100, 2)):
            assert abs(analytic_q(theta, phi) - analytic_q(phi, theta)) < 1e-10

    def test_equals_pipeline_on_grid(self):
        axis = np.radians(np.arange(0, 181, 6))
        theta, phi = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
        pipeline = experiment_distributions(theta, phi, QUIET)[:, 3, 0]
        assert np.max(np.abs(pipeline - analytic_q(theta, phi))) <= 1e-10


class TestBroadcasting:
    """Each quantity has one definition, serving scalars and arrays alike."""

    @staticmethod
    def _points():
        rng = np.random.default_rng(23)
        theta, phi = rng.uniform(-math.pi, math.pi, (2, 40))
        theta[:3], phi[:3] = (0.0, math.pi / 2, DEG(45)), (0.0, 0.3, DEG(90))
        return theta, phi

    @pytest.mark.parametrize("fn", [chi_of, analytic_q, concurrence])
    def test_array_equals_pointwise(self, fn):
        theta, phi = self._points()
        pointwise = [fn(t, p) for t, p in zip(theta.tolist(), phi.tolist())]
        # numpy may take vector code paths for arrays: last-bit agreement only
        np.testing.assert_allclose(fn(theta, phi), pointwise, rtol=1e-14, atol=1e-15)

    def test_classify_array_equals_pointwise(self):
        theta, phi = self._points()
        kinds = classify(theta, phi)
        assert kinds.shape == theta.shape
        assert kinds.tolist() == [classify(t, p) for t, p in zip(theta.tolist(), phi.tolist())]
        assert {"PS", "MES", "NMES"} == set(kinds.tolist())

    def test_outer_grid_shape(self):
        axis = np.radians(np.arange(0.0, 91.0, 5.0))
        q = analytic_q(axis[:, None], axis[None, :3])
        assert q.shape == (19, 3)
        assert classify(axis[:, None], axis[None, :3]).shape == (19, 3)


class TestQMaxAndOptimum:
    def test_q_max_value(self):
        assert abs(q_max() - 0.090169943) < 1e-9

    def test_q_max_reached_at_optimum(self):
        theta, phi = optimal_angles()
        assert abs(analytic_q(theta, phi) - q_max()) < 1e-10

    def test_q_max_dominates_grid(self):
        # independent oracle: evaluate the closed form on a 361x361 grid
        deg = np.radians(np.arange(0.0, 361.0))
        th = deg[:, None]
        ph = deg[None, :]
        chi = np.arctan2(1.0, np.tan(th) * np.cos(ph))
        q = np.abs(0.5 * np.cos(th) * np.cos(chi) * (1 - np.exp(-2j * ph))) ** 2
        assert q.max() <= q_max() + 1e-10

    def test_optimal_angle_degrees(self):
        theta, phi = optimal_angles()
        assert theta == phi
        assert abs(math.degrees(theta) - 51.8273) < 1e-3

    def test_cos_two_theta(self):
        theta, _ = optimal_angles()
        assert abs(math.cos(2 * theta) - (2 - math.sqrt(5))) < 1e-12

    def test_local_maximum_by_finite_differences(self):
        theta, phi = optimal_angles()
        h = 1e-4
        center = analytic_q(theta, phi)
        assert analytic_q(theta + h, phi) <= center
        assert analytic_q(theta - h, phi) <= center
        assert analytic_q(theta, phi + h) <= center
        assert analytic_q(theta, phi - h) <= center


def generic_concurrence(amps):
    """Oracle: pure-state two-qubit concurrence 2 |a00 a11 - a01 a10|."""
    return 2.0 * abs(amps[0] * amps[3] - amps[1] * amps[2])


def spin_flip_concurrence(amps):
    """Second oracle: pure-state spin-flip overlap |<psi| Y(x)Y |psi*>|."""
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    return abs(amps.conj() @ yy @ amps.conj())


class TestClassification:
    def test_mes_row(self):
        assert classify(DEG(45), DEG(90)) == "MES"
        assert abs(concurrence(DEG(45), DEG(90)) - 1.0) < 1e-12

    def test_ps_phi_zero(self):
        for theta_deg in (13, 45, 77):
            assert classify(DEG(theta_deg), 0.0) == "PS"
            assert concurrence(DEG(theta_deg), 0.0) < 1e-12

    def test_ps_theta_zero_and_90(self):
        assert classify(0.0, DEG(33)) == "PS"
        assert classify(DEG(90), DEG(33)) == "PS"

    def test_boundaries_at_tolerance(self):
        # concurrence sin(phi) at theta = 45 deg: below the tolerance is PS,
        # above 1 - tolerance is MES, both boundaries themselves are NMES
        theta = DEG(45)
        c = np.array([0.0, 0.5 * CLASSIFICATION_TOL, 2.0 * CLASSIFICATION_TOL, 0.5,
                      1.0 - 2.0 * CLASSIFICATION_TOL, 1.0 - 0.5 * CLASSIFICATION_TOL, 1.0])
        kinds = classify(theta, np.arcsin(c))
        assert kinds.tolist() == ["PS", "PS", "NMES", "NMES", "NMES", "MES", "MES"]

    def test_optimum_is_nmes(self):
        angles = DEG(51.827), DEG(51.827)
        assert classify(*angles) == "NMES"
        oracle = generic_concurrence(prepared_amplitudes(*angles))
        assert abs(concurrence(*angles) - oracle) < 1e-10
        assert abs(concurrence(*angles) - 0.7639) < 1e-3

    def test_concurrence_against_both_oracles(self):
        rng = np.random.default_rng(20)
        for theta, phi in rng.uniform(0, math.pi, (30, 2)):
            amps = prepared_amplitudes(theta, phi)
            c = concurrence(theta, phi)
            assert abs(c - generic_concurrence(amps)) < 1e-10
            assert abs(c - spin_flip_concurrence(amps)) < 1e-10

    def test_ps_and_mes_imply_zero_q(self):
        rng = np.random.default_rng(21)
        for theta, phi in rng.uniform(0, math.pi, (200, 2)):
            if classify(theta, phi) in ("PS", "MES"):
                assert analytic_q(theta, phi) <= 1e-12

    def test_phi_90_nmes_with_zero_q(self):
        # known failure set of this construction: NMES yet q = 0
        for theta_deg in range(10, 81, 10):
            if theta_deg == 45:
                continue
            assert classify(DEG(theta_deg), DEG(90)) == "NMES"
            assert analytic_q(DEG(theta_deg), DEG(90)) <= 1e-12


@settings(max_examples=40)
@given(st.floats(0.0, math.pi), st.floats(0.0, math.pi))
def test_pipeline_equals_closed_form_q(theta, phi):
    assert abs(hardy_probabilities(theta, phi)[3] - analytic_q(theta, phi)) <= 1e-10
