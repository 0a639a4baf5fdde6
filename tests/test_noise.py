"""Noise-layer tests: channels, hardware circuit, sampling, epsilon estimates."""

import math

import numpy as np
import pytest

import kraus_reference as ref
from hardysim.engine import (
    EXPERIMENT_SETTINGS,
    FLAGGED_OUTCOME,
    check_distributions,
    depolarize_one,
    depolarize_two,
    experiment_distributions,
    experiment_steps,
)
from hardysim.hardy import HardyParams, analytic_q, optimal_angles
from hardysim.noise import (
    NoiseModel,
    ProfileError,
    ShotConfig,
    estimate_batch,
    load_noise_profile,
    measure_epsilons,
    statistical_error,
)
from hardysim.sweep import SweepRow

I2 = np.eye(2, dtype=complex)


def depolarize(rho, p, num_targets, qubit=0):
    """The engine's closed-form channel on one qubit or on both."""
    return depolarize_one(rho, p, qubit) if num_targets == 1 else depolarize_two(rho, p)


def random_rho(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    return np.outer(amps, amps.conj())


def simulate(params, a_index, b_index, noise):
    """Engine distribution of one experiment at one point."""
    dists = experiment_distributions([params.theta], [params.phi], noise)[0]
    return dists[EXPERIMENT_SETTINGS.index((a_index, b_index))]


def every_experiment(*dists):
    """Batch of shape (len(dists), 4, 4): each point runs `dist` in all four experiments."""
    return np.repeat(np.asarray(dists, dtype=np.float64)[:, None, :], 4, axis=1)


def ideal(params, a_index, b_index):
    """Noiseless distribution of one experiment from the Kraus reference."""
    dists = ref.distributions(params.theta, params.phi, 0.0, 0.0, 0.0, 0.0)
    return dists[EXPERIMENT_SETTINGS.index((a_index, b_index))]


class TestDepolarizingKraus:
    """The closed-form channels against the Pauli Kraus sums of the reference."""

    def test_zero_probability_is_identity_only(self):
        rho = random_rho(np.random.default_rng(29))
        for qubit in (0, 1):
            assert depolarize_one(rho, 0.0, qubit) is rho
        assert depolarize_two(rho, 0.0) is rho

    @pytest.mark.parametrize("p", [0.0, 0.01, 0.37, 1.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_completeness(self, p, k):
        ops = ref.depolarizing_kraus(p, k)
        total = sum(o.conj().T @ o for o in ops)
        np.testing.assert_allclose(total, np.eye(2**k), atol=1e-12)
        rho = random_rho(np.random.default_rng(28))
        target = 0 if k == 1 else ref.BOTH
        expect = ref.kraus_channel(rho, ops, target)
        out = depolarize(rho, p, k)
        np.testing.assert_allclose(out, expect, atol=1e-12)
        assert abs(np.trace(out) - 1.0) < 1e-12

    def test_full_mixing_single_qubit(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        out = depolarize_one(rho, 1.0, 0)
        np.testing.assert_allclose(out, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-12)

    def test_small_p_diagonal(self):
        p = 0.01
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        out = depolarize_one(rho, p, 1)
        np.testing.assert_allclose(out, np.diag([1 - p / 2, 0, p / 2, 0]), atol=1e-12)

    def test_composition_effective_probability(self):
        # two passes at p equal one pass at 1 - (1-p)^2, exactly
        p = 0.01
        p_eff = 1.0 - (1.0 - p) ** 2
        rng = np.random.default_rng(30)
        rho = random_rho(rng)
        for k in (1, 2):
            twice = depolarize(depolarize(rho, p, k), p, k)
            once = depolarize(rho, p_eff, k)
            np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel.from_rates(1.5, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            NoiseModel.from_rates(0.0, -0.1, 0.0, 0.0)


class TestNoiseModel:
    def test_default_profile_rates(self):
        m = NoiseModel.default_profile()
        assert m.p1 == 0.001 and m.p2 == 0.01
        assert m.readout[0][0, 1] == 0.02

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            NoiseModel.from_rates(-0.1, 0, 0, 0)
        with pytest.raises(ValueError):
            NoiseModel.from_rates(0, 0, 1.2, 0)

    def test_confusion_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            NoiseModel(0.0, 0.0, (np.array([[0.9, 0.2], [0, 1]]), np.eye(2)))


class TestProfileFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "chip.profile"
        path.write_text(
            "# illustrative chip numbers\n"
            "name = testchip\n"
            "p1 = 0.002\n"
            "p2 = 0.015\n"
            "readout0 = 0.01\n"
            "readout1 = 0.03\n"
        )
        m = load_noise_profile(path)
        assert m.name == "testchip"
        assert m.p1 == 0.002 and m.p2 == 0.015
        assert abs(m.readout[0][1, 0] - 0.01) < 1e-15
        assert abs(m.readout[1][0, 1] - 0.03) < 1e-15

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("p1=0\np2=0\nreadout0=0\n")
        with pytest.raises(ProfileError, match="missing key"):
            load_noise_profile(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("p1=zero\np2=0\nreadout0=0\nreadout1=0\n")
        with pytest.raises(ProfileError, match="non-numeric"):
            load_noise_profile(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("p1=0\np2=0\nreadout0=0\nreadout1=0\nt1=80\n")
        with pytest.raises(ProfileError, match="unknown keys"):
            load_noise_profile(path)

    def test_unreadable(self, tmp_path):
        with pytest.raises(ProfileError, match="cannot read"):
            load_noise_profile(tmp_path / "missing.profile")

    def test_out_of_range_rate(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("p1=2\np2=0\nreadout0=0\nreadout1=0\n")
        with pytest.raises(ProfileError):
            load_noise_profile(path)


class TestExperimentCircuit:
    def test_gate_counts_per_setting(self):
        params = HardyParams.from_degrees(51.827, 51.827)
        expected = {(1, 1): 10, (2, 1): 12, (1, 2): 12, (2, 2): 14}
        for (a, b), count in expected.items():
            steps = experiment_steps(a, b, params.theta, params.lam, params.chi)
            assert len(steps) == count

    def test_zero_noise_matches_ideal(self):
        rng = np.random.default_rng(31)
        quiet = NoiseModel.none()
        for theta, phi in rng.uniform(0, math.pi, (8, 2)):
            params = HardyParams(theta, phi)
            for a, b in EXPERIMENT_SETTINGS:
                noisy = simulate(params, a, b, quiet)
                np.testing.assert_allclose(noisy, ideal(params, a, b), atol=1e-10)

    def test_full_readout_flip_relabels_outcomes(self):
        params = HardyParams.from_degrees(40, 70)
        flipped = NoiseModel.from_rates(0.0, 0.0, 1.0, 1.0)
        noisy = simulate(params, 2, 2, flipped)
        np.testing.assert_allclose(noisy, ideal(params, 2, 2)[[3, 2, 1, 0]], atol=1e-10)

    def test_default_profile_epsilon_band(self):
        params = HardyParams.from_degrees(51.827, 51.827)
        eps, _, _ = measure_epsilons(params, NoiseModel.default_profile(), None)
        assert np.all((0.0 < eps[:3]) & (eps[:3] < 0.1))

    def test_distribution_sums_to_one(self):
        params = HardyParams.from_degrees(30, 60)
        dist = simulate(params, 2, 2, NoiseModel.default_profile())
        assert abs(dist.sum() - 1.0) < 1e-10


class TestSampling:
    def test_point_mass(self):
        cfg = ShotConfig(shots_per_run=100, runs=3, seed=1)
        dists = np.zeros((2, 4, 4))
        dists[0, range(4), FLAGGED_OUTCOME] = 1.0
        dists[1, range(4), (np.array(FLAGGED_OUTCOME) + 1) % 4] = 1.0
        eps, err, per_run = estimate_batch(dists, cfg, [(0,), (1,)])
        np.testing.assert_array_equal(eps, [[1.0] * 4, [0.0] * 4])
        np.testing.assert_array_equal(err, np.zeros((2, 4)))
        np.testing.assert_array_equal(per_run, [[1.0] * 3, [0.0] * 3])

    def test_uniform_concentration(self):
        cfg = ShotConfig(shots_per_run=8192, runs=1, seed=2)
        eps, _, _ = estimate_batch(every_experiment([0.25] * 4), cfg, [()])
        sigma = math.sqrt(8192 * 0.25 * 0.75)
        assert np.all(np.abs(eps * 8192 - 2048) <= 5 * sigma)

    def test_deterministic_for_equal_seed(self):
        cfg = ShotConfig(shots_per_run=512, runs=5, seed=77)
        dists = every_experiment([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1])
        first, second = (estimate_batch(dists, cfg, [(0, 0), (0, 1)]) for _ in range(2))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_streams_are_independent(self):
        cfg = ShotConfig(shots_per_run=512, runs=2, seed=77)
        _, _, per_run = estimate_batch(every_experiment([0.25] * 4, [0.25] * 4), cfg, [(0,), (1,)])
        assert not np.array_equal(per_run[0], per_run[1])

    def test_negative_seed_accepted(self):
        cfg = ShotConfig(shots_per_run=16, runs=1, seed=-12345)
        eps, _, _ = estimate_batch(every_experiment([0.5, 0.5, 0.0, 0.0]), cfg, [()])
        assert np.all((0.0 <= eps) & (eps <= 1.0))

    def test_frequency_convergence(self):
        dist = np.array([0.6, 0.25, 0.1, 0.05])
        flagged = dist[list(FLAGGED_OUTCOME)]
        n = 8192 * 10
        dists = every_experiment(dist)
        for seed in range(5):
            eps, _, _ = estimate_batch(dists, ShotConfig(runs=10, seed=seed), [()])
            bound = 6 * np.sqrt(flagged * (1 - flagged) / n)
            assert np.all(np.abs(eps[0] - flagged) <= bound)

    def test_invalid_distribution_rejected(self):
        # checked once where distributions are made; the sampler trusts them
        with pytest.raises(ValueError, match="sums differ"):
            check_distributions(np.array([0.5, 0.2, 0.0, 0.0]))
        with pytest.raises(ValueError, match="negative"):
            check_distributions(np.array([-0.2, 1.2, 0.0, 0.0]))

    def test_shot_config_validation(self):
        with pytest.raises(ValueError):
            ShotConfig(shots_per_run=0)
        with pytest.raises(ValueError):
            ShotConfig(runs=0)


class TestStatisticalError:
    def test_boundary_values(self):
        assert statistical_error(0.0, 10) == 0.0
        assert statistical_error(1.0, 10) == 0.0

    def test_half_single_run(self):
        assert abs(statistical_error(0.5, 1) - 0.005524) < 1e-6

    def test_pooled_value(self):
        assert abs(statistical_error(0.1281, 10) - 0.001168) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            statistical_error(1.5, 10)
        with pytest.raises(ValueError):
            statistical_error(0.5, 0)


class TestEpsilonEstimates:
    def test_pooled_frequencies_and_identity(self):
        runs, shots = 10, 8192
        cfg = ShotConfig(shots_per_run=shots, runs=runs, seed=5)
        params = HardyParams(0.9, 0.9)
        noise = NoiseModel.default_profile()
        dists = experiment_distributions([params.theta], [params.phi], noise)
        eps, err, per_run = estimate_batch(dists, cfg, [()])
        hits = eps * (runs * shots)
        np.testing.assert_array_equal(hits, np.round(hits))
        assert abs(eps[0, 3] - per_run[0].mean()) < 1e-15
        np.testing.assert_array_equal(err, statistical_error(eps, runs, shots))
        assert per_run.shape == (1, runs)
        # a single point is the batch of one with stream base ()
        for single, batched in zip(measure_epsilons(params, noise, cfg), (eps, err, per_run)):
            np.testing.assert_array_equal(single, batched[0])

    def test_estimate_is_plain_subtraction(self):
        # the estimate column is literally eps5 - q
        def row(eps5, q):
            return SweepRow(0.0, 0.0, q, 0.0, 0.0, 0.0, eps5, 0.0, None)

        assert abs(row(0.0807, 0.0).eps4_estimated - 0.0807) < 1e-12
        assert abs(row(0.1281, 0.09017).eps4_estimated - 0.03793) < 1e-12

    def test_range_validation(self):
        # exact-mode estimates stay in [0, 1] despite rounding in the engine
        dists = every_experiment([-1e-17, 1.0, 0.0, 0.0], [1.0 + 1e-16, 0.0, 0.0, 0.0])
        eps, err, _ = estimate_batch(dists, None, [(), ()])
        np.testing.assert_array_equal(eps[0, [0, 3]], [0.0, 0.0])
        np.testing.assert_array_equal(eps[1, [0, 3]], [1.0, 1.0])
        np.testing.assert_array_equal(err, np.zeros((2, 4)))

    def test_noiseless_sampled_pipeline_near_ideal(self):
        params = HardyParams(*optimal_angles())
        q = analytic_q(params.theta, params.phi)
        eps, _, _ = measure_epsilons(params, NoiseModel.none(), ShotConfig(seed=3))
        tol = 4 * statistical_error(q, 10)
        assert abs(eps[3] - q) <= tol
        assert eps[0] == eps[1] == eps[2] == 0.0

    def test_exact_mode_matches_distributions(self):
        params = HardyParams.from_degrees(51.827, 51.827)
        noise = NoiseModel.default_profile()
        eps, err, _ = measure_epsilons(params, noise, None)
        dist = simulate(params, 2, 2, noise)
        assert abs(eps[3] - dist[0]) < 1e-14
        assert err[3] == 0.0


class TestMonotonicity:
    LADDER = [0.0, 0.5, 1.0, 2.0, 4.0]

    def _eps_sum(self, noise):
        params = HardyParams(*optimal_angles())
        eps, _, _ = measure_epsilons(params, noise, None)
        return eps[:3].sum()

    @pytest.mark.parametrize("which", ["p1", "p2", "readout"])
    def test_error_sum_monotone_in_each_rate(self, which):
        base = NoiseModel.default_profile()
        values = []
        for factor in self.LADDER:
            if which == "p1":
                m = NoiseModel.from_rates(base.p1 * factor, base.p2, 0.02, 0.02)
            elif which == "p2":
                m = NoiseModel.from_rates(base.p1, base.p2 * factor, 0.02, 0.02)
            else:
                m = NoiseModel.from_rates(base.p1, base.p2, 0.02 * factor, 0.02 * factor)
            values.append(self._eps_sum(m))
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)
