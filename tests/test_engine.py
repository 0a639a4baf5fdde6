"""Engine tests: each public function of `hardysim.engine` against dense
matrices written out by hand and against the Kraus-sum reference."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kraus_reference as ref
from hardysim.engine import (
    CX,
    FLAGGED_OUTCOME,
    check_distributions,
    cnot_free_distributions,
    experiment_distributions,
    prepared_state,
    steps_unitary,
)
from hardysim import engine, gates, sweep
from hardysim.hardy import analytic_q
from hardysim.noise import NoiseModel

angles = st.floats(0.0, math.pi)
rates = st.floats(0.0, 1.0)
edge_rates = st.one_of(st.sampled_from([0.0, 1.0]), rates)

# Test-local gate matrices, independent of the gates module.
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT_HIGH_CTRL = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
QUIET = NoiseModel.none()


def rho_of(entries):
    """The engine's 16 entries over a batch as (*batch, 4, 4) matrices."""
    stacked = np.stack(np.broadcast_arrays(*entries), axis=-1)
    return stacked.reshape(stacked.shape[:-1] + (4, 4))


def run(rho, steps, noise):
    """`engine._run` on a (..., 4, 4) state: phase gates and CNOTs, each followed by
    its channel, as the preparation runs them from its first CNOT on.  The state goes
    in as its 16 entries over the batch of rho and the gates, a point as a batch of one."""
    gate_shapes = (np.shape(s[1])[:-2] for s in steps if s is not CX)
    batch = np.broadcast_shapes(np.shape(rho)[:-2], *gate_shapes)
    rho = np.broadcast_to(rho, (batch or (1,)) + (4, 4))
    out = engine._run([rho[..., k // 4, k % 4] for k in range(16)], steps, noise)
    return rho_of(out).reshape(batch + (4, 4))


def product_rho(steps, noise=QUIET):
    """The engine's product state after one-qubit `steps` from |00>, as a (4, 4) matrix."""
    return rho_of(engine._product_state(steps, noise))


def assert_density_matrix(rho):
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


@settings(max_examples=60, deadline=None)
@given(angles, angles, rates, rates, rates, rates)
# readout alone, at half and full flips: on Bob's bit, on Alice's, and on both
@example(0.7, 1.1, 0.0, 0.0, 0.5, 0.0)
@example(0.7, 1.1, 0.0, 0.0, 1.0, 0.0)
@example(0.7, 1.1, 0.0, 0.0, 0.0, 0.5)
@example(0.7, 1.1, 0.0, 0.0, 0.0, 1.0)
@example(0.7, 1.1, 0.0, 0.0, 0.5, 1.0)
def test_engine_matches_kraus_reference(theta, phi, p1, p2, readout0, readout1):
    dists = experiment_distributions([theta], [phi], NoiseModel(p1, p2, readout0, readout1))[0]
    expect = ref.distributions(theta, phi, p1, p2, readout0, readout1)
    assert np.max(np.abs(dists - expect)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(angles, angles, edge_rates, edge_rates)
@example(0.7, 1.1, 0.0, 0.0)
@example(0.7, 1.1, 1.0, 1.0)
def test_prepared_state_matches_kraus_reference(theta, phi, p1, p2):
    """The shared prepared state, a product and then phases, against the Kraus run of
    the preparation's eight steps."""
    noise = NoiseModel(p1, p2, 0.0, 0.0)
    rho = rho_of(prepared_state(np.array([theta]), np.array([phi]), noise))[0]
    expect = ref.run_steps(ref.GROUND, ref.circuit(theta, phi, 1, 1)[:8], p1, p2)
    assert np.max(np.abs(rho - expect)) <= 1e-12
    assert_density_matrix(rho)


@settings(max_examples=60, deadline=None)
@given(angles, angles)
def test_noiseless_engine_meets_closed_forms(theta, phi):
    dists = experiment_distributions([theta], [phi], NoiseModel.none())[0]
    flagged = dists[range(4), FLAGGED_OUTCOME]
    assert np.max(flagged[:3]) <= 1e-12
    assert abs(flagged[3] - analytic_q(theta, phi)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(angles, angles), min_size=1, max_size=8), *[edge_rates] * 4)
@example([(0.0, 0.7), (math.pi / 2, 1.1)], 0.0, 0.0, 0.0, 0.0)
@example([(0.0, 0.7), (math.pi / 2, 1.1)], 1.0, 1.0, 1.0, 1.0)
@example([(0.0, math.pi / 2), (math.pi / 2, 0.0), (math.pi / 2, math.pi / 2)], 1.0, 0.0, 0.0, 1.0)
@example([(math.pi / 2, 0.3), (0.0, 0.0), (0.0, math.pi)], 0.0, 1.0, 1.0, 0.0)
def test_batch_matches_full_state_path(points, p1, p2, readout0, readout1):
    """Every row of a batch, each setting, against the Kraus reference's full final
    states of that point alone."""
    theta, phi = np.array(points).T
    dists = experiment_distributions(theta, phi, NoiseModel(p1, p2, readout0, readout1))
    for row, (t, f) in zip(dists, points):
        assert np.max(np.abs(row - ref.distributions(t, f, p1, p2, readout0, readout1))) <= 1e-12


def test_point_and_grid_match_the_flat_batch():
    """A scalar point gives one (4, 4) distribution set, a (3, 5) grid a (3, 5, 4, 4)
    array and a theta column times a phi row (a surface's layout) a (15, 15, 4, 4) one,
    each the same points' rows of one flat batch (the grid's and the surface's bit for
    bit, the surface's against theta repeated and phi tiled)."""
    theta = np.linspace(0.0, math.pi / 2, 15)
    phi = np.linspace(0.2, 3.0, 15)
    noise = NoiseModel(0.01, 0.05, 0.02, 0.03)
    flat = experiment_distributions(theta, phi, noise)
    grid = experiment_distributions(theta.reshape(3, 5), phi.reshape(3, 5), noise)
    assert grid.shape == (3, 5, 4, 4)
    np.testing.assert_array_equal(grid.reshape(15, 4, 4), flat)
    surface = experiment_distributions(theta[:, None], phi[None, :], noise)
    assert surface.shape == (15, 15, 4, 4)
    pairs = experiment_distributions(np.repeat(theta, 15), np.tile(phi, 15), noise)
    np.testing.assert_array_equal(surface.reshape(225, 4, 4), pairs)
    for k in (0, 7, 14):
        point = experiment_distributions(theta[k], phi[k], noise)
        assert point.shape == (4, 4)
        np.testing.assert_allclose(point, flat[k], rtol=0.0, atol=1e-15)


def test_no_dense_gate_action_on_a_full_state(monkeypatch):
    """No gate with a non-zero off-diagonal entry acts on a full state in
    `prepared_state`, the one path that applies gates to one: before the first CNOT the
    state is built as a product, and after it the preparation's gates are phases."""
    act, calls, dense = engine._act, [], []

    def counting(m, r, axis, *rest):
        calls.append(axis)
        if np.any(m[0][1]) or np.any(m[1][0]):
            dense.append(axis)
        return act(m, r, axis, *rest)

    monkeypatch.setattr(engine, "_act", counting)
    prepared_state(np.array([0.3, 0.9]), np.array([0.4, 1.2]), NoiseModel.default_profile())
    assert calls and dense == []


# Noise models from none to every rate 1, with one that depolarizes and flips one
# qubit only.
NOISE_MODELS = [
    NoiseModel.none(),
    NoiseModel.default_profile(),
    NoiseModel(0.003, 0.02, 0.01, 0.04),
    NoiseModel(0.3, 0.2, 0.1, 0.05),
    NoiseModel(1.0, 1.0, 1.0, 1.0),
    NoiseModel(0.5, 0.0, 0.5, 0.0),
]


def rates_of(noise):
    return noise.p1, noise.p2, noise.readout0, noise.readout1


@pytest.mark.parametrize("noise", NOISE_MODELS, ids=lambda m: repr(rates_of(m)))
def test_surface_layout_matches_kraus_reference(noise):
    """A theta column times a phi row, with angles on the axes and outside [0, pi],
    against the Kraus reference at every point."""
    theta = np.array([0.0, math.pi / 2, math.pi, 4.4])
    phi = np.array([0.0, 0.7, math.pi / 2, math.pi, -2.1])
    dists = experiment_distributions(theta[:, None], phi[None, :], noise)
    assert dists.shape == (4, 5, 4, 4)
    rates = rates_of(noise)
    for (i, t), (j, f) in itertools.product(enumerate(theta), enumerate(phi)):
        assert np.max(np.abs(dists[i, j] - ref.distributions(t, f, *rates))) <= 1e-12


@pytest.mark.parametrize(
    "u",
    [
        gates.hadamard(),
        np.exp(-0.35j) * gates.u1(0.7),
        gates.u1(np.array([0.3, 0.7])) * np.array([1.0, np.exp(0.2j)])[:, None, None],
        gates.u3(np.array([0.0, 0.4]), 0.0, 0.0),
    ],
    ids=["dense", "diagonal-not-one", "one-at-some-points", "diagonal-at-some-points"],
)
def test_a_non_phase_gate_is_refused(u):
    """Only diag(1, e^{i lam}) over the whole batch acts on a full state: a gate with a
    non-zero off-diagonal entry, or whose m[0][0] is not exactly 1, at any point, raises."""
    with pytest.raises(ValueError, match="only a phase gate"):
        steps_unitary([(0, u)])
    with pytest.raises(ValueError, match="only a phase gate"):
        run(np.eye(4) / 4, [CX, (1, u)], QUIET)


def dense_action(m, r, axis):
    """The 2x2 gate `m` on `axis` of the 16 entries r, every entry by the full rule
    out[i] = m[i][0] r0 + m[i][1] r1, whatever the gate."""
    bit = 8 >> axis
    out = list(r)
    for k in range(16):
        if not k & bit:
            low, high = r[k], r[k | bit]
            out[k] = m[0][0] * low + m[0][1] * high
            out[k | bit] = m[1][0] * low + m[1][1] * high
    return out


@pytest.mark.parametrize("qubit", [0, 1])
@pytest.mark.parametrize("seed", range(4))
def test_phase_rule_equals_the_dense_action(qubit, seed):
    """U r U^dag of u1, on random entries, equals the dense 2x2 action on the rows and
    then, conjugated, on the columns, value for value."""
    rng = np.random.default_rng(seed)
    r = list(rng.normal(size=(16, 9)) + 1j * rng.normal(size=(16, 9)))
    m = engine._entries(gates.u1(rng.uniform(-2 * math.pi, 2 * math.pi, 9)))
    conj = tuple(tuple(np.conj(x) for x in row) for row in m)
    dense = dense_action(conj, dense_action(m, r, 1 - qubit), 3 - qubit)
    got = engine._conjugate(m, r, qubit)
    assert all(np.array_equal(x, y) for x, y in zip(got, dense))


# A step is "cx", (qubit, u3 angles) or (qubit, (u1 angle,)); drawn lists put CNOTs
# anywhere: leading, trailing, back to back, and around segments that touch one qubit.
# An angle may be a list over one batch axis.
one_qubit_steps = st.tuples(st.integers(0, 1), st.tuples(angles, angles, angles))
phase_steps = st.tuples(st.integers(0, 1), st.tuples(angles))
step_lists = st.lists(st.one_of(st.just("cx"), phase_steps), max_size=14)
mixed_states = st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)
# u1 angles over a batch of three, 0 (the identity) at some points and not at others
PHASE_BATCH = [(0, ([0.0, 1.1, 0.0],)), "cx", (1, (0.4,)), (0, ([0.7, 0.0, 0.0],))]


def engine_steps(steps):
    """Drawn steps as engine steps: three angles make a u3, one a u1."""
    gate = {3: gates.u3, 1: gates.u1}
    return [CX if s == "cx" else (s[0], gate[len(s[1])](*map(np.array, s[1]))) for s in steps]


def reference_steps(steps):
    """Drawn steps at one point as Kraus-reference (gate, target) steps."""
    gate = {3: ref.u3, 1: ref.u1}
    return [(ref.CNOT, ref.BOTH) if s == "cx" else (gate[len(s[1])](*s[1]), s[0]) for s in steps]


def points_of(steps):
    """Drawn steps at each point of their batch: every angle list replaced by its value there."""
    size = max([len(a) for s in steps if s != "cx" for a in s[1] if isinstance(a, list)], default=1)
    return [
        [s if s == "cx" else (s[0], tuple(a[k] if isinstance(a, list) else a for a in s[1]))
         for s in steps]
        for k in range(size)
    ]


def density_from(entries):
    """A full-rank mixed state A A^dag + I/10, normalised, from 32 real entries."""
    a = np.reshape(entries[:16], (4, 4)) + 1j * np.reshape(entries[16:], (4, 4))
    rho = a @ a.conj().T + 0.1 * np.eye(4)
    return rho / np.trace(rho).real


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ps_00", "ps_01"]), st.lists(one_qubit_steps, max_size=4),
       *[edge_rates] * 4)
@example("ps_00", [], 0.0, 0.0, 0.0, 0.0)
@example("ps_01", [], 1.0, 1.0, 1.0, 1.0)
def test_cnot_free_readout_matches_kraus_reference(variant, extra, p1, p2, readout0, readout1):
    """The `reduced` circuits, each with drawn u3 gates after it, read out from their
    product state, against the Kraus run of the same steps."""
    steps = sweep._reduced_steps(variant)[2]
    noise = NoiseModel(p1, p2, readout0, readout1)
    got = cnot_free_distributions(steps + engine_steps(extra), noise)
    kraus = [(u, qubit) for qubit, u in steps] + reference_steps(extra)
    expect = ref.read_out(ref.run_steps(ref.GROUND, kraus, p1, p2), readout0, readout1)
    assert np.max(np.abs(got - expect)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(step_lists, rates, rates, mixed_states)
@example(["cx", "cx"], 0.3, 0.4, [0.5] * 32)
@example(["cx", (0, (1.0,)), (0, (0.5,))], 0.2, 0.1, [0.3] * 32)
@example([(1, (1.0,)), (0, (0.7,)), (1, (2.0,)), "cx"], 0.5, 0.6, [-0.2] * 32)
@example(PHASE_BATCH, 0.1, 0.2, [0.4] * 32)
def test_run_matches_step_by_step_kraus(steps, p1, p2, entries):
    """`_run` on drawn phase gates and CNOTs, at each point of their batch, against the
    Kraus run of the same steps with every channel applied after its own gate."""
    rho = density_from(entries)
    got = run(rho, engine_steps(steps), NoiseModel(p1, p2, 0.0, 0.0)).reshape(-1, 4, 4)
    points = points_of(steps)
    assert len(got) == len(points)
    for point, state in zip(points, got):
        assert np.max(np.abs(state - ref.run_steps(rho, reference_steps(point), p1, p2))) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(step_lists)
@example(PHASE_BATCH)
def test_steps_unitary_matches_dense_product(steps):
    got = steps_unitary(engine_steps(steps)).reshape(-1, 4, 4)
    points = points_of(steps)
    assert len(got) == len(points)
    for point, unitary in zip(points, got):
        dense = np.eye(4, dtype=complex)
        for gate, target in reference_steps(point):
            dense = ref.embed(gate, target) @ dense
        assert np.max(np.abs(unitary - dense)) <= 1e-12


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pure(amps):
    amps = np.asarray(amps, dtype=complex)
    return np.outer(amps, amps.conj())


def random_density(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return pure(amps / np.linalg.norm(amps))


def random_phase(rng):
    return gates.u1(rng.uniform(-math.pi, math.pi))


def depolarize_qubit(rho, p, qubit):
    """`_run` with the identity on `qubit`: the one-qubit channel alone."""
    return run(rho, [(qubit, I2)], NoiseModel(p, 0.0, 0.0, 0.0))


def depolarize_both(rho, p):
    """`_run` with one CX on CX rho CX: the two-qubit channel on rho alone."""
    swapped = CNOT_HIGH_CTRL @ rho @ CNOT_HIGH_CTRL
    return run(swapped, [CX], NoiseModel(0.0, p, 0.0, 0.0))


def test_complex_magnitudes_finite():
    # magnitude computable without overflow across the working range
    grid = np.linspace(-10, 10, 21)
    values = grid[:, None] + 1j * grid[None, :]
    assert np.isfinite(np.abs(values)).all()


class TestCheckDistributions:
    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="sums differ"):
            check_distributions(np.zeros(4))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sums differ"):
            check_distributions(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            check_distributions(np.array([np.nan, 0.0, 0.0, 1.0]))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative probability"):
            check_distributions(np.array([[0.25] * 4, [1.1, -0.1, 0.0, 0.0]]))


class TestCnotFreeDistributions:
    """`cnot_free_distributions`: one-qubit gates from |00>, read out."""

    def test_nonunitary_gate_caught_by_final_check(self):
        # a non-unitary gate is not checked per step; the trace it breaks is
        # caught by the final-distribution check
        with pytest.raises(ValueError, match="sums differ"):
            cnot_free_distributions([(1, H), (1, np.diag([1.0, 2.0]))], QUIET)

    def test_basis_distribution(self):
        np.testing.assert_array_equal(cnot_free_distributions([(0, I2)], QUIET), [1, 0, 0, 0])

    def test_x_on_qubit0_flips_low_bit(self):
        np.testing.assert_allclose(cnot_free_distributions([(0, X)], QUIET), [0, 1, 0, 0])

    def test_h_on_qubit1_splits_high_bit(self):
        got = cnot_free_distributions([(1, H)], QUIET)
        np.testing.assert_allclose(got, [0.5, 0, 0.5, 0], atol=1e-15)

    def test_x_then_identity_goes_high(self):
        got = cnot_free_distributions([(1, X), (0, I2)], QUIET)
        np.testing.assert_allclose(got, [0, 0, 1, 0], atol=1e-15)

    def test_diagonal_equals_distribution(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            alice, bob = random_unitary(rng, 2), random_unitary(rng, 2)
            amps = np.kron(alice[:, 0], bob[:, 0])
            got = cnot_free_distributions([(1, alice), (0, bob)], QUIET)
            np.testing.assert_allclose(got, np.abs(amps) ** 2, atol=1e-12)

    def test_rejects_non_2x2_gate(self):
        with pytest.raises(ValueError, match=r"must be \(\.\.\., 2, 2\)"):
            cnot_free_distributions([(0, np.eye(3))], QUIET)

    def test_rejects_two_qubit_matrix(self):
        with pytest.raises(ValueError, match=r"must be \(\.\.\., 2, 2\)"):
            cnot_free_distributions([(1, CNOT_HIGH_CTRL)], QUIET)

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError, match="qubit must be 0 or 1"):
            cnot_free_distributions([(2, X)], QUIET)
        with pytest.raises(ValueError, match="qubit must be 0 or 1"):
            steps_unitary([(2, I2)])


class TestStates:
    """States on the one path: a product of one-qubit states, then phases and CNOTs."""

    def test_identity_leaves_state(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng)
        for qubit in (0, 1):
            np.testing.assert_allclose(run(rho, [(qubit, I2)], QUIET), rho, atol=1e-15)

    def test_noiseless_gates_keep_state_pure(self):
        # the engine's states stay projectors |psi><psi| under noiseless gates
        rho = product_rho([(1, H)])
        np.testing.assert_allclose(rho, pure(np.array([1, 0, 1, 0]) / np.sqrt(2)), atol=1e-15)
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-15)

    def test_bell_pair(self):
        rho = rho_of(engine._run(engine._product_state([(1, H)], QUIET), [CX], QUIET))
        np.testing.assert_allclose(rho, pure(np.array([1, 0, 0, 1]) / np.sqrt(2)), atol=1e-15)

    def test_cx_is_cnot_with_alice_as_control(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng)
        np.testing.assert_allclose(
            run(rho, [CX], QUIET), CNOT_HIGH_CTRL @ rho @ CNOT_HIGH_CTRL.conj().T, atol=1e-15
        )

    def test_preparation_matches_closed_form(self):
        # prepared state at theta=30deg, phi=60deg against its closed form
        theta, phi = math.radians(30), math.radians(60)
        amps = np.array(
            [math.cos(theta), math.sin(theta), math.cos(theta),
             math.sin(theta) * np.exp(2j * phi)]
        ) / math.sqrt(2)
        rho = rho_of(prepared_state(np.array([theta]), np.array([phi]), QUIET))[0]
        np.testing.assert_allclose(rho, pure(amps), atol=1e-12)
        assert abs(np.trace(rho @ rho) - 1.0) < 1e-12
        assert abs(np.trace(rho) - 1.0) < 1e-12

    def test_flat_distribution_from_prepared_amplitudes(self):
        # prepared state at theta=45deg, phi=0: all amplitudes of magnitude 1/2
        rho = rho_of(prepared_state(np.array([math.pi / 4]), np.array([0.0]), QUIET))[0]
        np.testing.assert_allclose(np.diagonal(rho).real, [0.25] * 4, atol=1e-12)


class TestChannels:
    """`_run` with depolarizing noise: the closed-form channels."""

    def test_empty_circuit_is_identity(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng)
        np.testing.assert_array_equal(run(rho, [], NoiseModel.default_profile()), rho)

    def test_full_depolarizing_gives_maximally_mixed(self):
        rho = pure([1, 0, 0, 0])
        # p = 1 on one qubit leaves I/2 there and the other qubit untouched
        np.testing.assert_allclose(
            depolarize_qubit(rho, 1.0, 1), np.kron(0.5 * I2, pure([1, 0])), atol=1e-15
        )
        np.testing.assert_allclose(
            depolarize_qubit(depolarize_qubit(rho, 1.0, 1), 1.0, 0), np.eye(4) / 4, atol=1e-15
        )
        np.testing.assert_allclose(depolarize_both(rho, 1.0), np.eye(4) / 4, atol=1e-15)

    def test_small_p_matches_bruteforce_sum(self):
        p = 0.01
        kraus = [
            np.sqrt(1 - 3 * p / 4) * I2,
            np.sqrt(p / 4) * X,
            np.sqrt(p / 4) * Y,
            np.sqrt(p / 4) * Z,
        ]
        rng = np.random.default_rng(12)
        rho = random_density(rng)
        for qubit in (0, 1):
            # brute-force 4-term sum, independent of the engine
            expect = sum(ref.embed(k, qubit) @ rho @ ref.embed(k, qubit).conj().T for k in kraus)
            np.testing.assert_allclose(depolarize_qubit(rho, p, qubit), expect, atol=1e-15)

    def test_two_qubit_channel_matches_kraus_sum(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng)
        expect = ref.kraus_channel(rho, ref.depolarizing_kraus(0.3, 2), ref.BOTH)
        np.testing.assert_allclose(depolarize_both(rho, 0.3), expect, atol=1e-12)

    def test_random_channels_preserve_trace_and_hermiticity(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            rho = random_density(rng)
            p = float(rng.random())
            for out in (depolarize_qubit(rho, p, int(rng.integers(2))), depolarize_both(rho, p)):
                assert abs(np.trace(out) - 1.0) < 1e-10
                assert np.max(np.abs(out - out.conj().T)) < 1e-10
                assert np.min(np.linalg.eigvalsh(out)) > -1e-12

    def test_random_circuits_preserve_norm(self):
        rng = np.random.default_rng(5)
        noise = NoiseModel(0.05, 0.1, 0.0, 0.0)
        for _ in range(20):
            steps = []
            for _ in range(int(rng.integers(0, 21))):
                if rng.random() < 0.3:
                    steps.append(CX)
                else:
                    steps.append((int(rng.integers(2)), random_phase(rng)))
            out = run(random_density(rng), steps, noise)
            assert abs(np.trace(out) - 1.0) < 1e-10
            assert np.max(np.abs(out - out.conj().T)) < 1e-10

    def test_two_axis_batch_equals_point_by_point(self):
        rng = np.random.default_rng(40)
        rho = np.array([[random_density(rng) for _ in range(3)] for _ in range(2)])
        lam = rng.uniform(-math.pi, math.pi, (2, 3))
        steps = [(1, gates.u1(lam)), (0, gates.u1(0.3)), CX, (0, gates.u1(-lam)), CX]
        noise = NoiseModel(0.03, 0.07, 0.0, 0.0)
        got = run(rho, steps, noise)
        assert got.shape == (2, 3, 4, 4)
        for i, j in np.ndindex(2, 3):
            point = [
                step if step is CX or step[1].ndim == 2 else (step[0], step[1][i, j])
                for step in steps
            ]
            np.testing.assert_array_equal(got[i, j], run(rho[i, j], point, noise))


class TestStepsUnitary:
    def test_identity_steps(self):
        np.testing.assert_array_equal(steps_unitary([(1, I2), (0, I2)]), np.eye(4))

    def test_phase_pair(self):
        lam = 0.731
        a = np.diag([1, np.exp(1j * lam)])
        b = np.diag([1, np.exp(-1j * lam)])
        # direct 4x4 oracle: diag(1, e^{-il}, e^{il}, e^{il} e^{-il})
        oracle = np.diag(
            [1, np.exp(-1j * lam), np.exp(1j * lam), np.exp(1j * lam) * np.exp(-1j * lam)]
        )
        np.testing.assert_allclose(steps_unitary([(1, a), (0, b)]), oracle, atol=1e-15)

    def test_matches_dense_oracle_and_run(self):
        rng = np.random.default_rng(6)
        steps = [(0, random_phase(rng)), CX, (1, random_phase(rng))]
        u = steps_unitary(steps)
        oracle = ref.embed(steps[2][1], 1) @ CNOT_HIGH_CTRL @ ref.embed(steps[0][1], 0)
        np.testing.assert_allclose(u, oracle, atol=1e-12)
        rho = random_density(rng)
        np.testing.assert_allclose(u @ rho @ u.conj().T, run(rho, steps, QUIET), atol=1e-12)

    def test_cx_alone_is_the_permutation(self):
        np.testing.assert_array_equal(steps_unitary([CX]), CNOT_HIGH_CTRL)

    def test_shapes_and_batch_equals_point_by_point(self):
        """The batch is the gates' broadcast shape, none for fixed gates, and each point
        of a two-axis batch is bit for bit the same steps run on that point alone."""
        assert steps_unitary([CX]).shape == (4, 4)
        lam = np.linspace(-math.pi, math.pi, 200)
        assert steps_unitary(gates.coupling_steps(lam)).shape == (200, 4, 4)
        rng = np.random.default_rng(41)
        col, row = rng.uniform(-math.pi, math.pi, (3, 1)), rng.uniform(-math.pi, math.pi, (1, 5))

        def steps(col, row):
            return [(0, gates.u1(col)), CX, (1, gates.u1(row)), (0, gates.u1(-row))]

        u = steps_unitary(steps(col, row))
        assert u.shape == (3, 5, 4, 4)
        for i, j in np.ndindex(3, 5):
            np.testing.assert_array_equal(u[i, j], steps_unitary(steps(col[i, 0], row[0, j])))
