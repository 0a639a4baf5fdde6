"""Noise-layer tests: channels, hardware circuit, sampling, epsilon estimates."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import kraus_reference as ref
from hardysim import engine, noise
from hardysim.engine import (
    EXPERIMENT_SETTINGS,
    FLAGGED_OUTCOME,
    check_distributions,
    cnot_free_distributions,
    experiment_distributions,
    experiment_steps,
)
from hardysim.hardy import analytic_q, chi_of, optimal_angles
from hardysim.noise import (
    NoiseModel,
    ProfileError,
    ShotConfig,
    _sample_counts,
    _uniforms,
    estimate_batch,
    load_noise_profile,
    splitmix64_mix,
    statistical_error,
)
from hardysim.sweep import SweepTable, measure_points

DEG = math.radians

I2 = np.eye(2, dtype=complex)


def random_rho(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    return np.outer(amps, amps.conj())


def simulate(theta, phi, a_index, b_index, noise):
    """Engine distribution of one experiment at one point."""
    dists = experiment_distributions([theta], [phi], noise)[0]
    return dists[EXPERIMENT_SETTINGS.index((a_index, b_index))]


def measure_point(theta, phi, noise, cfg):
    """(eps, stat_err, eps5_per_run) at one point: a batch of one."""
    dists = experiment_distributions([theta], [phi], noise)
    return tuple(a[0] for a in estimate_batch(dists, cfg))


def every_experiment(*dists):
    """Batch of shape (len(dists), 4, 4): each point runs `dist` in all four experiments."""
    return np.repeat(np.asarray(dists, dtype=np.float64)[:, None, :], 4, axis=1)


def ideal(theta, phi, a_index, b_index):
    """Noiseless distribution of one experiment from the Kraus reference."""
    dists = ref.distributions(theta, phi, 0.0, 0.0, 0.0, 0.0)
    return dists[EXPERIMENT_SETTINGS.index((a_index, b_index))]


class TestDepolarizingKraus:
    """The reference's Pauli Kraus sums against the channels as Nielsen & Chuang
    section 8.3.4 writes them, and the engine's one-qubit channel and merged rate
    against the Kraus sums."""

    def test_zero_probability_leaves_state_exactly(self):
        rho = random_rho(np.random.default_rng(29))
        for k, target in ((1, 0), (1, 1), (2, ref.BOTH)):
            out = ref.kraus_channel(rho, ref.depolarizing_kraus(0.0, k), target)
            np.testing.assert_array_equal(out, rho)
        # the engine's channel at rate 0 returns its populations as they are
        pair = [np.array([0.3]), np.array([0.7])]
        assert engine._mixed(pair, 0.0) is pair
        u = ref.u3(0.7, 0.2, 1.1)
        got = cnot_free_distributions([(1, u)], NoiseModel(0.0, 0.3, 0.0, 0.0))
        np.testing.assert_array_equal(got, [abs(u[0, 0]) ** 2, 0, abs(u[1, 0]) ** 2, 0])

    @pytest.mark.parametrize("p", [0.0, 0.01, 0.37, 1.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_completeness(self, p, k):
        ops = ref.depolarizing_kraus(p, k)
        total = sum(o.conj().T @ o for o in ops)
        np.testing.assert_allclose(total, np.eye(2**k), atol=1e-12)
        rho = random_rho(np.random.default_rng(28))
        if k == 1:  # on qubit 0, the low bit: (1 - p) rho + p (Tr_0 rho) (x) I/2
            reduced = rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
            expect = (1.0 - p) * rho + p * np.kron(reduced, I2 / 2)
        else:  # (1 - p) rho + p I/4
            expect = (1.0 - p) * rho + p * np.eye(4) / 4
        out = ref.kraus_channel(rho, ops, 0 if k == 1 else ref.BOTH)
        np.testing.assert_allclose(out, expect, atol=1e-12)
        assert abs(np.trace(out) - 1.0) < 1e-12

    def test_full_mixing_single_qubit(self):
        noise_model = NoiseModel(1.0, 0.0, 0.0, 0.0)
        got = cnot_free_distributions([(0, I2)], noise_model)
        np.testing.assert_allclose(got, [0.5, 0.5, 0.0, 0.0], atol=1e-15)
        kraus = ref.run_steps(ref.GROUND, [(I2, 0)], 1.0, 0.0)
        np.testing.assert_allclose(got, ref.read_out(kraus, 0.0, 0.0), atol=1e-12)

    def test_small_p_diagonal(self):
        p = 0.01
        got = cnot_free_distributions([(1, I2)], NoiseModel(p, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(got, [1 - p / 2, 0, p / 2, 0], atol=1e-15)

    def test_composition_effective_probability(self):
        # two Kraus passes at p equal one pass at the engine's merged rate 1 - (1-p)^2
        p = 0.01
        p_eff = engine._rate(2, NoiseModel(p, 0.0, 0.0, 0.0))
        rho = random_rho(np.random.default_rng(30))
        for k, target in ((1, 0), (1, 1), (2, ref.BOTH)):
            ops = ref.depolarizing_kraus(p, k)
            twice = ref.kraus_channel(ref.kraus_channel(rho, ops, target), ops, target)
            once = ref.kraus_channel(rho, ref.depolarizing_kraus(p_eff, k), target)
            np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(1.5, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            NoiseModel(0.0, -0.1, 0.0, 0.0)


class TestNoiseModel:
    def test_default_profile_rates(self):
        m = NoiseModel.default_profile()
        assert (m.p1, m.p2, m.readout0, m.readout1) == (0.001, 0.01, 0.02, 0.02)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1, 0, 0, 0)
        with pytest.raises(ValueError):
            NoiseModel(0, 0, 1.2, 0)


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
        assert (m.p1, m.p2, m.readout0, m.readout1) == (0.002, 0.015, 0.01, 0.03)

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

    def test_repeated_key(self, tmp_path):
        # the last value used to win silently
        path = tmp_path / "bad.profile"
        path.write_text("p1=0.5\np2=0\nreadout0=0\nreadout1=0\np1=0.001\n")
        with pytest.raises(ProfileError) as info:
            load_noise_profile(path)
        assert str(info.value) == f"{path}:5: repeated key 'p1'"

    def test_line_without_equals_sign(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("p1=0\np2 0.01  # no sign\nreadout0=0\nreadout1=0\n")
        with pytest.raises(ProfileError) as info:
            load_noise_profile(path)
        assert str(info.value) == f"{path}:2: expected key=value, got 'p2 0.01  # no sign'"

    def test_unreadable(self, tmp_path):
        with pytest.raises(ProfileError, match="cannot read"):
            load_noise_profile(tmp_path / "missing.profile")

    @pytest.mark.parametrize("key", ["p1", "p2", "readout0", "readout1"])
    def test_out_of_range_rate(self, tmp_path, key):
        rates = {"p1": 0, "p2": 0, "readout0": 0, "readout1": 0, key: 2}
        path = tmp_path / "bad.profile"
        path.write_text("".join(f"{k}={v}\n" for k, v in rates.items()))
        with pytest.raises(ProfileError, match=rf": {key} must be in \[0, 1\], got 2.0$"):
            load_noise_profile(path)


class TestExperimentCircuit:
    def test_gate_counts_per_setting(self):
        theta = phi = DEG(51.827)
        expected = {(1, 1): 10, (2, 1): 12, (1, 2): 12, (2, 2): 14}
        for (a, b), count in expected.items():
            steps = experiment_steps(a, b, theta, phi, chi_of(theta, phi))
            assert len(steps) == count

    def test_zero_noise_matches_ideal(self):
        rng = np.random.default_rng(31)
        quiet = NoiseModel.none()
        for theta, phi in rng.uniform(0, math.pi, (8, 2)):
            for a, b in EXPERIMENT_SETTINGS:
                noisy = simulate(theta, phi, a, b, quiet)
                np.testing.assert_allclose(noisy, ideal(theta, phi, a, b), atol=1e-10)

    def test_full_readout_flip_relabels_outcomes(self):
        flipped = NoiseModel(0.0, 0.0, 1.0, 1.0)
        noisy = simulate(DEG(40), DEG(70), 2, 2, flipped)
        np.testing.assert_allclose(noisy, ideal(DEG(40), DEG(70), 2, 2)[[3, 2, 1, 0]], atol=1e-10)

    def test_default_profile_epsilon_band(self):
        eps, _, _ = measure_point(DEG(51.827), DEG(51.827), NoiseModel.default_profile(), None)
        assert np.all((0.0 < eps[:3]) & (eps[:3] < 0.1))

    def test_distribution_sums_to_one(self):
        dist = simulate(DEG(30), DEG(60), 2, 2, NoiseModel.default_profile())
        assert abs(dist.sum() - 1.0) < 1e-10


class TestSampling:
    def test_point_mass(self):
        cfg = ShotConfig(shots_per_run=100, runs=3, seed=1)
        dists = np.zeros((2, 4, 4))
        dists[0, range(4), FLAGGED_OUTCOME] = 1.0
        dists[1, range(4), (np.array(FLAGGED_OUTCOME) + 1) % 4] = 1.0
        eps, err, per_run = estimate_batch(dists, cfg)
        np.testing.assert_array_equal(eps, [[1.0] * 4, [0.0] * 4])
        np.testing.assert_array_equal(err, np.zeros((2, 4)))
        np.testing.assert_array_equal(per_run, [[1.0] * 3, [0.0] * 3])

    def test_uniform_concentration(self):
        cfg = ShotConfig(shots_per_run=8192, runs=1, seed=2)
        eps, _, _ = estimate_batch(every_experiment([0.25] * 4), cfg)
        sigma = math.sqrt(8192 * 0.25 * 0.75)
        assert np.all(np.abs(eps * 8192 - 2048) <= 5 * sigma)

    def test_deterministic_for_equal_seed(self):
        cfg = ShotConfig(shots_per_run=512, runs=5, seed=77)
        dists = every_experiment([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1])
        first, second = (estimate_batch(dists, cfg) for _ in range(2))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_streams_are_independent(self):
        # two identical points in one batch draw different counts
        cfg = ShotConfig(shots_per_run=512, runs=2, seed=77)
        _, _, per_run = estimate_batch(every_experiment([0.25] * 4, [0.25] * 4), cfg)
        assert not np.array_equal(per_run[0], per_run[1])

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected(self, seed):
        # reducing such a seed modulo 2**64 would alias another seed's streams
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            ShotConfig(seed=seed)

    def test_seed_range_ends_accepted(self):
        dists = every_experiment([0.5, 0.5, 0.0, 0.0])
        first, last = (
            estimate_batch(dists, ShotConfig(shots_per_run=64, runs=2, seed=seed))[2]
            for seed in (0, 2**64 - 1)
        )
        assert not np.array_equal(first, last)

    @pytest.mark.parametrize("p", [0.0, 0.02, 0.09017, 0.5, 1.0])
    def test_binomial_moments(self, p):
        # the fourth experiment's flagged outcome is 0; its per-run counts
        # over many identical points are samples of Binomial(shots, p)
        shots, runs, points = 8192, 10, 2000
        rest = (1.0 - p) / 3.0
        dists = every_experiment(*[[p, rest, rest, rest]] * points)
        _, _, per_run = estimate_batch(dists, ShotConfig(shots, runs, seed=4))
        counts = (per_run * shots).ravel()  # shots is a power of 2: exact
        n = counts.size
        mean, var = shots * p, shots * p * (1.0 - p)
        mu4 = var * (1.0 + 3.0 * (shots - 2) * p * (1.0 - p))  # binomial 4th central moment
        var_of_var = (mu4 - var**2 * (n - 3) / (n - 1)) / n  # of the unbiased sample variance
        assert abs(counts.mean() - mean) <= 5.0 * math.sqrt(var / n)
        assert abs(counts.var(ddof=1) - var) <= 5.0 * math.sqrt(var_of_var)

    def test_frequency_convergence(self):
        dist = np.array([0.6, 0.25, 0.1, 0.05])
        flagged = dist[list(FLAGGED_OUTCOME)]
        n = 8192 * 10
        dists = every_experiment(dist)
        for seed in range(5):
            eps, _, _ = estimate_batch(dists, ShotConfig(runs=10, seed=seed))
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

    def test_pooled_count_limit(self):
        # pooled counts are int64: a total of 2**63 shots or more would wrap
        for shots, runs in ((2**62, 2), (2**63 - 1, 3), (10**20, 1)):
            with pytest.raises(ValueError, match=r"shots_per_run \* runs must be < 2\*\*63"):
                ShotConfig(shots_per_run=shots, runs=runs)
        cfg = ShotConfig(shots_per_run=2**63 - 1, runs=1)
        eps, _, per_run = estimate_batch(every_experiment([1.0, 0.0, 0.0, 0.0]), cfg)
        np.testing.assert_array_equal(eps[0, [0, 3]], [1.0, 1.0])
        np.testing.assert_array_equal(per_run, [[1.0]])


MASK64 = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64_reference(key, counter):
    """SplitMix64's output number `counter` (from 1) for state `key`, in Python ints."""
    z = (key + counter * GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def binomial_pmf(n, p):
    """Binomial(n, p) probabilities of 0..n, from math.lgamma."""
    return np.array([
        math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                 + k * math.log(p) + (n - k) * math.log1p(-p))
        for k in range(n + 1)
    ])


def chi_square(counts, pmf):
    """(Pearson statistic, degrees of freedom) of counts against pmf, with
    neighbouring outcomes merged until each bin expects at least 5."""
    observed = np.bincount(counts, minlength=pmf.size).astype(np.float64)
    expected = pmf * counts.size
    bins, o, e = [], 0.0, 0.0
    for obs, exp in zip(observed, expected):
        o, e = o + obs, e + exp
        if e >= 5.0:
            bins.append((o, e))
            o, e = 0.0, 0.0
    last_o, last_e = bins.pop()
    bins.append((last_o + o, last_e + e))
    return sum((o - e) ** 2 / e for o, e in bins), len(bins) - 1


def chi_square_limit(dof, z=3.719):
    """Wilson-Hilferty upper quantile of chi-square(dof); z = 3.719 leaves 1e-4 above."""
    return dof * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3


def sampled(p, points, n, seed=0):
    """A sweep's draws at `points` points whose four experiments all flag with p:
    4 x points counts of Binomial(n, p)."""
    return _sample_counts(seed, np.full(4 * points, n), np.full(4 * points, p))


def per_run_layout(p_flag, shots, runs):
    """(n, p) of estimate_batch's draws for p_flag of shape (N, 4): per point
    experiments 1-3 pooled, then experiment 4 once per run."""
    n = np.tile(np.array([shots * runs] * 3 + [shots] * runs, dtype=np.int64), len(p_flag))
    return n, p_flag[:, [0, 1, 2] + [3] * runs].ravel()


def every_branch():
    """(seed, n, p) of 40 points at 3 runs whose flagged probabilities reach
    every branch of the sampler."""
    rng = np.random.default_rng(12)
    p_flag = rng.choice([0.0, 1.0, 1e-17, 2e-4, 0.003, 0.02, 0.09, 0.5, 0.7, 0.999],
                        size=(40, 4))
    return (9, *per_run_layout(p_flag, 8192, 3))


class TestShotSampler:
    def test_splitmix64_matches_python_ints(self):
        assert splitmix64_reference(0, 1) == 0xE220A8397B1DCDAF
        keys = [0, 1, 7, 2**63 + 5, MASK64]
        pairs = [(key, counter) for key in keys for counter in (0, 1, 2, 3, 2**40 + 3, 2**63)]
        z = np.array([(key + counter * GAMMA) & MASK64 for key, counter in pairs], dtype=np.uint64)
        mixed = splitmix64_mix(z)
        assert mixed.dtype == np.uint64
        assert [int(v) for v in mixed] == [splitmix64_reference(*pair) for pair in pairs]

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    def test_uniforms_read_their_counters(self, seed):
        # draw d, attempt a, uniform w reads counter (d << 17) | (a << 1) | w
        draws = [0, 1, 12, 2**40 + 1]
        for attempt, which in ((0, 0), (0, 1), (3, 1), (2**16 - 1, 0)):
            got = _uniforms(seed, np.array(draws, dtype=np.uint64), attempt, which)
            expected = [
                (splitmix64_reference(seed, (d << 17) | (attempt << 1) | which) >> 11) * 2.0**-53
                for d in draws
            ]
            assert got.tolist() == expected

    @pytest.mark.parametrize(
        "n,p,points",
        [
            (20, 0.3, 5000),       # inversion, n p = 6
            (40, 0.24, 5000),      # inversion, just below n p = 10
            (40, 0.26, 5000),      # BTRD, just above
            (30, 0.5, 5000),       # BTRD at the largest unflipped p
            (8192, 0.09, 5000),    # BTRD, mostly far from the mode
            (81920, 0.02, 25000),  # BTRD, a pooled count of the default profile
            (60, 0.8, 5000),       # flipped: n - BTRD(60, 0.2)
            (20, 0.9, 5000),       # flipped: n - inversion(20, 0.1)
        ],
    )
    def test_counts_follow_the_binomial_pmf(self, n, p, points):
        counts = sampled(p, points, n, seed=11)
        statistic, dof = chi_square(counts, binomial_pmf(n, p))
        assert statistic <= chi_square_limit(dof)

    def test_single_shots_are_bernoulli(self):
        bits = sampled(0.3, 20000, 1, seed=3)
        assert set(np.unique(bits)) == {0, 1}
        assert abs(bits.mean() - 0.3) <= 5 * math.sqrt(0.3 * 0.7 / bits.size)

    def test_largest_pooled_total_draws_without_warnings(self):
        # pytest turns warnings into errors: no overflow, cast or divide warning
        n = 2**63 - 1
        counts = _sample_counts(4, np.full(4, n), np.array([0.0, 1.0, 1e-18, 0.5]))
        assert counts.dtype == np.int64
        assert counts[:2].tolist() == [0, n]
        assert 0 <= counts[2] <= 60
        assert abs(counts[3] / n - 0.5) <= 1e-8

    def test_counts_do_not_depend_on_the_block_size(self, monkeypatch):
        draws = every_branch()
        default = _sample_counts(*draws)
        for block in (1, 7, 2**14):
            monkeypatch.setattr(noise, "_BLOCK_DRAWS", block)
            np.testing.assert_array_equal(_sample_counts(*draws), default)

    def test_counts_are_pinned_on_every_branch(self):
        # 62 inversion and 163 BTRD draws over attempts 0-2, p = 0, p = 1 and
        # flips at 0.7 and 0.999: a changed bit on any branch changes the digest
        counts = _sample_counts(*every_branch())
        digest = hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest()
        assert digest == "03d8de91307ca403a48231a9750496667bbb87da0fd3e4da2dfd598549fe5fd3"

    def test_draws_memory_per_run_is_bounded(self):
        # sweep.SAMPLE_BYTES_PER_RUN rounds this growth down to 32; it reads
        # about 33 bytes per run, and 50 or more when the flipped p and the
        # float n are made once over all draws instead of per block
        dists = experiment_distributions([DEG(51.827)], [DEG(51.827)], NoiseModel.default_profile())
        peaks = []
        for runs in (10**5, 10**6):
            tracemalloc.start()
            try:
                estimate_batch(dists, ShotConfig(8192, runs, seed=1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (10**6 - 10**5) <= 40.0

    def test_estimate_batch_lays_out_per_run_draws(self):
        # probe's counts: per point the pooled experiments 1-3, then
        # experiment 4 once per run, at consecutive counters
        p_flag = np.random.default_rng(14).integers(0, 205, size=(5, 4)) / 1024  # 1 - p exact
        dists = np.zeros((5, 4, 4))
        dists[:, range(4), FLAGGED_OUTCOME] = p_flag
        dists[:, range(4), (np.array(FLAGGED_OUTCOME) + 1) % 4] = 1.0 - p_flag
        eps, _, per_run = estimate_batch(dists, ShotConfig(1000, 6, seed=2))
        counts = _sample_counts(2, *per_run_layout(p_flag, 1000, 6)).reshape(5, 9)
        np.testing.assert_array_equal(eps[:, :3], counts[:, :3] / 6000)
        np.testing.assert_array_equal(per_run, counts[:, 3:] / 1000)

    def test_other_points_keep_their_counts(self):
        rng = np.random.default_rng(13)
        p_flag = rng.uniform(0.0, 0.2, size=(30, 4))
        before = _sample_counts(6, *per_run_layout(p_flag, 8192, 10)).reshape(30, 13)
        p_flag[7] = [0.5, 0.0, 1e-3, 0.95]
        after = _sample_counts(6, *per_run_layout(p_flag, 8192, 10)).reshape(30, 13)
        others = np.arange(30) != 7
        np.testing.assert_array_equal(after[others], before[others])
        assert not np.array_equal(after[7], before[7])


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
        noise = NoiseModel.default_profile()
        dists = experiment_distributions([0.9], [0.9], noise)
        eps, err, per_run = estimate_batch(dists, cfg)
        hits = eps * (runs * shots)
        np.testing.assert_array_equal(hits, np.round(hits))
        assert abs(eps[0, 3] - per_run[0].mean()) < 1e-15
        np.testing.assert_array_equal(err, statistical_error(eps, runs, shots))
        assert per_run.shape == (1, runs)
        # a single point (probe) is the sweep's batch of one
        angle_deg = math.degrees(0.9)  # converts back to exactly 0.9
        table, single_err, single_per_run = measure_points([angle_deg], [angle_deg], noise, cfg)
        for single, batched in zip((table.eps, single_err, single_per_run), (eps, err, per_run)):
            np.testing.assert_array_equal(single, batched)

    def test_estimate_is_plain_subtraction(self):
        # the estimate column is literally eps5 - q
        eps5, q, zeros = np.array([0.0807, 0.1281]), np.array([0.0, 0.09017]), np.zeros(2)
        eps = np.column_stack([zeros, zeros, zeros, eps5])
        table = SweepTable(zeros, zeros, q, eps, zeros, np.array(["PS", "NMES"]))
        np.testing.assert_allclose(table.eps4_est, [0.0807, 0.03793], rtol=0, atol=1e-12)

    def test_range_validation(self):
        # exact-mode estimates stay in [0, 1] despite rounding in the engine
        dists = every_experiment([-1e-17, 1.0, 0.0, 0.0], [1.0 + 1e-16, 0.0, 0.0, 0.0])
        eps, err, _ = estimate_batch(dists, None)
        np.testing.assert_array_equal(eps[0, [0, 3]], [0.0, 0.0])
        np.testing.assert_array_equal(eps[1, [0, 3]], [1.0, 1.0])
        np.testing.assert_array_equal(err, np.zeros((2, 4)))

    def test_roundoff_does_not_move_sampled_counts(self):
        # ideal zeros come out of the engine as roundoff of either sign; a
        # count depends only on its own probability, and one of about 1e-16
        # still counts 0, so no count moves
        axis = np.radians(np.arange(0.0, 91.0, 5.0))
        theta, phi = (grid.ravel() for grid in np.meshgrid(axis, axis, indexing="ij"))
        dists = experiment_distributions(theta, phi, NoiseModel.none())
        signs = np.random.default_rng(41).choice([-1.0, 1.0], size=dists.shape)
        cfg = ShotConfig(seed=6)
        eps, _, per_run = estimate_batch(dists, cfg)
        for perturbed in (dists + 1e-15 * signs, dists - 1e-15 * signs, np.clip(dists, 0.0, None)):
            perturbed_eps, _, perturbed_per_run = estimate_batch(perturbed, cfg)
            np.testing.assert_array_equal(perturbed_eps, eps)
            np.testing.assert_array_equal(perturbed_per_run, per_run)

    def test_noiseless_sampled_sweep_has_exact_zero_conditions(self):
        axis = np.arange(0.0, 91.0, 5.0)
        theta, phi = (grid.ravel() for grid in np.meshgrid(axis, axis, indexing="ij"))
        table, err, _ = measure_points(theta, phi, NoiseModel.none(), ShotConfig(seed=8))
        np.testing.assert_array_equal(table.eps[:, :3], 0.0)
        np.testing.assert_array_equal(err[:, :3], 0.0)

    def test_noiseless_sampled_pipeline_near_ideal(self):
        q = analytic_q(*optimal_angles())
        eps, _, _ = measure_point(*optimal_angles(), NoiseModel.none(), ShotConfig(seed=3))
        tol = 4 * statistical_error(q, 10)
        assert abs(eps[3] - q) <= tol
        assert eps[0] == eps[1] == eps[2] == 0.0

    def test_exact_mode_matches_distributions(self):
        noise = NoiseModel.default_profile()
        eps, err, _ = measure_point(DEG(51.827), DEG(51.827), noise, None)
        dist = simulate(DEG(51.827), DEG(51.827), 2, 2, noise)
        assert abs(eps[3] - dist[0]) < 1e-14
        assert err[3] == 0.0


class TestMonotonicity:
    LADDER = [0.0, 0.5, 1.0, 2.0, 4.0]

    def _eps_sum(self, noise):
        eps, _, _ = measure_point(*optimal_angles(), noise, None)
        return eps[:3].sum()

    @pytest.mark.parametrize("which", ["p1", "p2", "readout"])
    def test_error_sum_monotone_in_each_rate(self, which):
        base = NoiseModel.default_profile()
        values = []
        for factor in self.LADDER:
            if which == "p1":
                m = NoiseModel(base.p1 * factor, base.p2, 0.02, 0.02)
            elif which == "p2":
                m = NoiseModel(base.p1, base.p2 * factor, 0.02, 0.02)
            else:
                m = NoiseModel(base.p1, base.p2, 0.02 * factor, 0.02 * factor)
            values.append(self._eps_sum(m))
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)
