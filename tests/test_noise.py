"""Noise-layer tests: channels, hardware circuit, sampling, epsilon estimates."""

import math

import numpy as np
import pytest

import kraus_reference as ref
from hardysim.engine import (
    EXPERIMENT_SETTINGS,
    FLAGGED_OUTCOME,
    depolarize_one,
    depolarize_two,
    experiment_distributions,
    experiment_steps,
)
from hardysim.hardy import HardyParams, analytic_q, optimal_angles
from hardysim.noise import (
    EpsilonEstimates,
    NoiseModel,
    ProfileError,
    ShotConfig,
    estimate_epsilons,
    load_noise_profile,
    measure_epsilons,
    sample_shots,
    statistical_error,
)

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

    def test_scaled(self):
        m = NoiseModel.default_profile().scaled(2.0)
        assert m.p1 == 0.002 and m.p2 == 0.02
        assert abs(m.readout[1][0, 1] - 0.04) < 1e-15


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
        est = measure_epsilons(params, NoiseModel.default_profile(), None)
        for eps in (est.eps1, est.eps2, est.eps3):
            assert 0.0 < eps < 0.1

    def test_distribution_sums_to_one(self):
        params = HardyParams.from_degrees(30, 60)
        dist = simulate(params, 2, 2, NoiseModel.default_profile())
        assert abs(dist.sum() - 1.0) < 1e-10


class TestSampling:
    def test_point_mass(self):
        counts = sample_shots([1.0, 0.0, 0.0, 0.0], ShotConfig(shots_per_run=100, runs=3, seed=1))
        assert counts.shape == (3, 4)
        np.testing.assert_array_equal(counts[:, 0], [100, 100, 100])
        assert counts[:, 1:].sum() == 0

    def test_uniform_concentration(self):
        cfg = ShotConfig(shots_per_run=8192, runs=1, seed=2)
        counts = sample_shots([0.25] * 4, cfg)[0]
        sigma = math.sqrt(8192 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 2048) <= 5 * sigma)

    def test_deterministic_for_equal_seed(self):
        cfg = ShotConfig(shots_per_run=512, runs=5, seed=77)
        dist = [0.1, 0.2, 0.3, 0.4]
        np.testing.assert_array_equal(sample_shots(dist, cfg), sample_shots(dist, cfg))

    def test_streams_are_independent(self):
        cfg = ShotConfig(shots_per_run=512, runs=2, seed=77)
        dist = [0.25] * 4
        a = sample_shots(dist, cfg, stream=0)
        b = sample_shots(dist, cfg, stream=1)
        assert not np.array_equal(a, b)

    def test_negative_seed_accepted(self):
        cfg = ShotConfig(shots_per_run=16, runs=1, seed=-12345)
        counts = sample_shots([0.5, 0.5], cfg)
        assert counts.sum() == 16

    def test_frequency_convergence(self):
        dist = np.array([0.6, 0.25, 0.1, 0.05])
        n = 8192 * 10
        for seed in range(5):
            counts = sample_shots(dist, ShotConfig(runs=10, seed=seed))
            freq = counts.sum(axis=0) / n
            bound = 6 * np.sqrt(dist * (1 - dist) / n)
            assert np.all(np.abs(freq - dist) <= bound)

    def test_invalid_distribution_rejected(self):
        cfg = ShotConfig(shots_per_run=16, runs=1)
        with pytest.raises(ValueError):
            sample_shots([0.5, 0.2], cfg)
        with pytest.raises(ValueError):
            sample_shots([-0.2, 1.2], cfg)

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
    def _counts(self, flagged, total_per_run, runs, flag_index):
        """Counts with `flagged` hits of outcome flag_index spread over runs."""
        counts = np.zeros((runs, 4), dtype=int)
        base, extra = divmod(flagged, runs)
        for r in range(runs):
            hits = base + (1 if r < extra else 0)
            counts[r, flag_index] = hits
            counts[r, (flag_index + 1) % 4] = total_per_run - hits
        return counts

    def test_pooled_frequencies_and_identity(self):
        runs, shots = 10, 8192
        per_exp_hits = [82, 164, 246, 10494]
        counts = [
            self._counts(h, shots, runs, flag)
            for h, flag in zip(per_exp_hits, FLAGGED_OUTCOME)
        ]
        q = 0.09017
        est = estimate_epsilons(counts, q)
        total = runs * shots
        assert abs(est.eps1 - 82 / total) < 1e-15
        assert abs(est.eps5 - 10494 / total) < 1e-15
        assert est.eps4_estimated == est.eps5 - q
        assert est.stat_err4 == est.stat_err5
        assert abs(est.stat_err5 - statistical_error(est.eps5, runs, shots)) < 1e-15
        assert est.eps5_per_run.shape == (runs,)

    def test_estimate_is_plain_subtraction(self):
        # the estimate column is literally eps5 - q
        mes = EpsilonEstimates(
            eps1=0, eps2=0, eps3=0, eps5=0.0807, q_theory=0.0,
            stat_err1=0, stat_err2=0, stat_err3=0, stat_err5=0.0037,
            eps5_per_run=np.array([0.0807]),
        )
        assert abs(mes.eps4_estimated - 0.0807) < 1e-12
        nmes = EpsilonEstimates(
            eps1=0, eps2=0, eps3=0, eps5=0.1281, q_theory=0.09017,
            stat_err1=0, stat_err2=0, stat_err3=0, stat_err5=0.0039,
            eps5_per_run=np.array([0.1281]),
        )
        assert abs(nmes.eps4_estimated - 0.03793) < 1e-12

    def test_range_validation(self):
        with pytest.raises(ValueError):
            EpsilonEstimates(
                eps1=1.5, eps2=0, eps3=0, eps5=0, q_theory=0,
                stat_err1=0, stat_err2=0, stat_err3=0, stat_err5=0,
                eps5_per_run=np.array([0.0]),
            )

    def test_bad_counts_rejected(self):
        good = np.full((2, 4), 10)
        with pytest.raises(ValueError, match="four experiments"):
            estimate_epsilons([good] * 3, 0.0)
        with pytest.raises(ValueError, match="shape"):
            estimate_epsilons([good, good, good, np.full((2, 3), 10)], 0.0)

    def test_noiseless_sampled_pipeline_near_ideal(self):
        params = HardyParams(*optimal_angles())
        q = analytic_q(params.theta, params.phi)
        est = measure_epsilons(params, NoiseModel.none(), ShotConfig(seed=3))
        tol = 4 * statistical_error(q, 10)
        assert abs(est.eps5 - q) <= tol
        assert abs(est.eps4_estimated) <= tol
        assert est.eps1 == est.eps2 == est.eps3 == 0.0

    def test_exact_mode_matches_distributions(self):
        params = HardyParams.from_degrees(51.827, 51.827)
        noise = NoiseModel.default_profile()
        est = measure_epsilons(params, noise, None)
        dist = simulate(params, 2, 2, noise)
        assert abs(est.eps5 - dist[0]) < 1e-14
        assert est.stat_err5 == 0.0


class TestMonotonicity:
    LADDER = [0.0, 0.5, 1.0, 2.0, 4.0]

    def _eps_sum(self, noise):
        params = HardyParams(*optimal_angles())
        est = measure_epsilons(params, noise, None)
        return est.eps1 + est.eps2 + est.eps3

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
