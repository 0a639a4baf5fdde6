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
    first_columns,
    flagged_probabilities,
    steps_unitary,
)
from hardysim import engine, gates, selftest, sweep
from hardysim.hardy import analytic_q, chi_of
from hardysim.noise import NoiseModel
from hardysim.selftest import prepared_psi

angles = st.floats(0.0, math.pi)
rates = st.floats(0.0, 1.0)
edge_rates = st.one_of(st.sampled_from([0.0, 1.0]), rates)

# Test-local gate matrices, independent of the gates module.
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT_HIGH_CTRL = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
QUIET = NoiseModel.none()


def ref_flagged(theta, phi, *rates):
    """The Kraus reference's probability of each experiment's flagged outcome."""
    return ref.distributions(theta, phi, *rates)[range(4), FLAGGED_OUTCOME]


def prepared_rho(theta, phi):
    """|psi><psi| of the noiseless prepared state at one point, as `validate` builds it."""
    psi = prepared_psi(np.array([theta]), np.array([phi]))[0]
    return np.outer(psi, psi.conj())


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
    flagged = flagged_probabilities([theta], [phi], NoiseModel(p1, p2, readout0, readout1))[0]
    expect = ref_flagged(theta, phi, p1, p2, readout0, readout1)
    assert np.max(np.abs(flagged - expect)) <= 1e-12


@pytest.mark.parametrize("a_index,b_index", engine.EXPERIMENT_SETTINGS)
@pytest.mark.parametrize(
    "theta,phi", [(0.0, 0.0), (0.7, 1.1), (0.9045, 0.9045), (math.pi / 2, math.pi / 2), (2.9, 0.3)]
)
def test_experiment_steps_are_the_reference_circuit(a_index, b_index, theta, phi):
    """The step lists, whose gate counts the closed form reads and `reduced` prints,
    are the Kraus reference's circuit gate for gate: the same qubit or CX at each step,
    and the same matrix."""
    steps = engine.experiment_steps(a_index, b_index, theta, phi, chi_of(theta, phi))
    expect = ref.circuit(theta, phi, a_index, b_index)
    assert len(steps) == len(expect)
    for step, (matrix, target) in zip(steps, expect):
        if target is ref.BOTH:
            assert step is CX
        else:
            assert step is not CX and step[0] == target
            assert np.max(np.abs(step[1] - matrix)) <= 1e-15


def pad(steps, pairs, is_cx, identity):
    """`steps` with identity(qubit) appended to each CNOT-delimited segment, as many for
    Alice (qubit 1), then Bob (qubit 0), as that segment's (Alice's, Bob's) pair says."""
    out, pairs = [], iter(pairs)
    for step in [*steps, None]:
        if step is None or is_cx(step):
            alice, bob = next(pairs)
            out += [identity(1)] * alice + [identity(0)] * bob
        if step is not None:
            out.append(step)
    return out


def padded_engine(monkeypatch, segments, alice, bob):
    """Patch the step lists with u1(0) gates padded in, as `pad` places them: `segments`
    in the preparation, alice[i] in Alice's setting i and bob[j] in Bob's j; then
    re-derive the closed form's counts from them."""
    def engine_pad(steps, pairs):
        return pad(steps, pairs, lambda s: s is CX, lambda q: (q, gates.u1(0.0)))

    prep, alice_steps, bob_steps = engine.preparation_steps, engine.alice_steps, engine.bob_steps
    monkeypatch.setattr(engine, "preparation_steps",
                        lambda theta, lam: engine_pad(prep(theta, lam), segments))
    monkeypatch.setattr(engine, "alice_steps",
                        lambda i, lam: engine_pad(alice_steps(i, lam), [(alice[i], 0)]))
    monkeypatch.setattr(engine, "bob_steps",
                        lambda j, lam, chi: engine_pad(bob_steps(j, lam, chi), [(0, bob[j])]))
    monkeypatch.setattr(engine, "_COUNTS", engine._gate_counts())


def padded_ref_flagged(theta, phi, segments, alice, bob, *rates):
    """`ref_flagged` of the Kraus reference's circuit padded as `padded_engine` pads."""
    def ref_pad(steps, pairs):
        return pad(steps, pairs, lambda s: s[1] is ref.BOTH, lambda q: (ref.u1(0.0), q))

    states = []
    for a, b in ref.SETTINGS:
        steps = ref.circuit(theta, phi, a, b)
        circuit = (ref_pad(steps[:8], segments)
                   + ref_pad([s for s in steps[8:] if s[1] == 1], [(alice[a], 0)])
                   + ref_pad([s for s in steps[8:] if s[1] == 0], [(0, bob[b])]))
        states.append(ref.run_steps(ref.GROUND, circuit, *rates[:2]))
    return ref.read_out(np.array(states), *rates[2:])[range(4), FLAGGED_OUTCOME]


COUNTS = ((1, 2), (1, 1), (0, 1), {1: 1, 2: 3}, {1: 1, 2: 3})
pads = st.integers(0, 2)
segment_pads = st.tuples(*[st.tuples(pads, pads)] * 3)
setting_pads = st.fixed_dictionaries({1: pads, 2: pads})


@settings(max_examples=40, deadline=None)
@given(angles, angles, segment_pads, setting_pads, setting_pads, *[rates] * 4)
# one gate in Alice's segment after the CNOTs (none today), then in each other segment
@example(0.7, 1.1, ((0, 0), (0, 0), (1, 0)), {1: 0, 2: 0}, {1: 0, 2: 0}, 0.3, 0.2, 0.1, 0.05)
@example(0.7, 1.1, ((0, 0), (1, 0), (0, 0)), {1: 0, 2: 0}, {1: 0, 2: 0}, 0.3, 0.2, 0.1, 0.05)
@example(0.7, 1.1, ((0, 0), (0, 1), (0, 0)), {1: 0, 2: 0}, {1: 0, 2: 0}, 0.3, 0.2, 0.1, 0.05)
@example(0.7, 1.1, ((0, 0), (0, 0), (0, 1)), {1: 0, 2: 0}, {1: 0, 2: 0}, 0.3, 0.2, 0.1, 0.05)
@example(0.7, 1.1, ((1, 1), (0, 0), (0, 0)), {1: 1, 2: 1}, {1: 1, 2: 1}, 0.3, 0.2, 0.1, 0.05)
def test_padded_circuit_matches_kraus_reference(theta, phi, segments, alice, bob,
                                                p1, p2, readout0, readout1):
    """u1(0) gates padded into each segment of the step lists change only the gate
    counts, and so each segment's channel: the closed form, reading the re-derived
    counts, still equals the Kraus reference run of the same padded circuit."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        padded_engine(monkeypatch, segments, alice, bob)
        assert engine._COUNTS == (
            *(tuple(n + m for n, m in zip(pair, more)) for pair, more in zip(COUNTS, segments)),
            {i: COUNTS[3][i] + alice[i] for i in (1, 2)},
            {j: COUNTS[4][j] + bob[j] for j in (1, 2)},
        )
        flagged = flagged_probabilities([theta], [phi], NoiseModel(p1, p2, readout0, readout1))[0]
    expect = padded_ref_flagged(theta, phi, segments, alice, bob, p1, p2, readout0, readout1)
    assert np.max(np.abs(flagged - expect)) <= 1e-12


def test_gate_counts_are_derived_from_the_step_lists():
    assert engine._COUNTS == engine._gate_counts() == COUNTS


def test_padded_bob_setting_reaches_the_sweep_table(monkeypatch):
    """One more gate in Bob's setting 2 (u1(0), the identity) changes the exact
    eps3 and eps5 of `measure_points` to the Kraus reference's of that circuit."""
    theta_deg, phi_deg = np.array([[20.0], [51.827], [75.0]]), np.array([[30.0, 51.827, 80.0]])
    before = sweep.measure_points(theta_deg, phi_deg, NoiseModel.default_profile(), None)[0]
    padded_engine(monkeypatch, ((0, 0),) * 3, {1: 0, 2: 0}, {1: 0, 2: 1})
    table = sweep.measure_points(theta_deg, phi_deg, NoiseModel.default_profile(), None)[0]
    np.testing.assert_array_equal(table.eps[:, :2], before.eps[:, :2])
    assert (table.eps[:, 2:] != before.eps[:, 2:]).all()
    rates = rates_of(NoiseModel.default_profile())
    for t, f, eps in zip(table.theta_deg, table.phi_deg, table.eps):
        expect = padded_ref_flagged(math.radians(t), math.radians(f), ((0, 0),) * 3,
                                    {1: 0, 2: 0}, {1: 0, 2: 1}, *rates)
        assert np.max(np.abs(eps - expect)) <= 1e-12


@pytest.mark.parametrize("function,change,message", [
    ("preparation_steps", lambda steps: [*steps, CX], "exactly two CNOTs"),
    ("bob_steps", lambda steps: [*steps, CX], "both in the preparation"),
    ("preparation_steps", lambda steps: [*steps, (0, gates.u3(0.4, 0.0, 0.0))], "only a phase gate"),
    ("preparation_steps", lambda steps: [steps[0], steps[3], steps[1], steps[2], *steps[4:]],
     "only a phase gate"),
    ("alice_steps", lambda steps: [*steps, (0, gates.u1(0.0))], "its own party, qubit 1"),
    ("bob_steps", lambda steps: [(1, gates.u1(0.0)), *steps], "its own party, qubit 0"),
], ids=["third-cx", "cx-in-setting", "u3-after-cx", "cx-moved-first", "alice-on-bob",
        "bob-on-alice"])
def test_circuit_outside_the_closed_form_is_refused(monkeypatch, function, change, message):
    """A step list the closed form was not derived for: a third CNOT, a CNOT in a
    setting, a gate other than a phase gate after the first CNOT (one appended, or
    the first CNOT moved before Bob's u3), or a setting gate on the other party."""
    real = getattr(engine, function)
    monkeypatch.setattr(engine, function, lambda *args: change(real(*args)))
    with pytest.raises(ValueError, match=message):
        engine._gate_counts()


@settings(max_examples=60, deadline=None)
@given(angles, angles)
@example(0.7, 1.1)
@example(0.0, 0.0)
@example(math.pi / 2, math.pi / 2)
def test_classification_state_matches_kraus_reference(theta, phi):
    """The state `validate`'s classification suite reads, each qubit's U|0> up to the
    first CNOT (`first_columns`) and then the phase gates and CNOTs as one unitary
    (`steps_unitary`), against the noiseless Kraus run of the preparation's eight steps."""
    rho = prepared_rho(theta, phi)
    expect = ref.run_steps(ref.GROUND, ref.circuit(theta, phi, 1, 1)[:8], 0.0, 0.0)
    assert np.max(np.abs(rho - expect)) <= 1e-12
    assert_density_matrix(rho)


@settings(max_examples=60, deadline=None)
@given(angles, angles)
def test_noiseless_engine_meets_closed_forms(theta, phi):
    flagged = flagged_probabilities([theta], [phi], NoiseModel.none())[0]
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
    flagged = flagged_probabilities(theta, phi, NoiseModel(p1, p2, readout0, readout1))
    for row, (t, f) in zip(flagged, points):
        assert np.max(np.abs(row - ref_flagged(t, f, p1, p2, readout0, readout1))) <= 1e-12


def test_point_and_grid_match_the_flat_batch():
    """A scalar point gives one (4,) probability set, a (3, 5) grid a (3, 5, 4) array
    and a theta column times a phi row (a surface's layout) a (15, 15, 4) one, each
    the same points' rows of one flat batch (the grid's and the surface's bit for bit,
    the surface's against theta repeated and phi tiled)."""
    theta = np.linspace(0.0, math.pi / 2, 15)
    phi = np.linspace(0.2, 3.0, 15)
    noise = NoiseModel(0.01, 0.05, 0.02, 0.03)
    flat = flagged_probabilities(theta, phi, noise)
    grid = flagged_probabilities(theta.reshape(3, 5), phi.reshape(3, 5), noise)
    assert grid.shape == (3, 5, 4)
    np.testing.assert_array_equal(grid.reshape(15, 4), flat)
    surface = flagged_probabilities(theta[:, None], phi[None, :], noise)
    assert surface.shape == (15, 15, 4)
    pairs = flagged_probabilities(np.repeat(theta, 15), np.tile(phi, 15), noise)
    np.testing.assert_array_equal(surface.reshape(225, 4), pairs)
    for k in (0, 7, 14):
        point = flagged_probabilities(theta[k], phi[k], noise)
        assert point.shape == (4,)
        np.testing.assert_allclose(point, flat[k], rtol=0.0, atol=1e-15)


def test_no_dense_gate_action_on_a_full_state(monkeypatch):
    """No gate with a non-zero off-diagonal entry acts on a full state in
    `prepared_psi`, the classification suite's state: every gate before the first CNOT
    goes to `first_columns`, which builds the state as a product, and `steps_unitary`
    gets the rest of the preparation, CNOTs and diagonal gates only."""
    seen = {}

    def recording(name):
        real = getattr(selftest, name)

        def record(steps, *rest):
            seen[name] = list(steps)
            return real(steps, *rest)

        return record

    for name in ("first_columns", "steps_unitary"):
        monkeypatch.setattr(selftest, name, recording(name))
    theta, phi = np.array([0.3, 0.9]), np.array([0.4, 1.2])
    prepared_psi(theta, phi)
    before, after = seen["first_columns"], seen["steps_unitary"]
    assert CX not in before and after[0] is CX
    assert len(before) + len(after) == len(engine.preparation_steps(theta, phi))
    for step in after:
        assert step is CX or not (step[1][..., 0, 1].any() or step[1][..., 1, 0].any())


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
    flagged = flagged_probabilities(theta[:, None], phi[None, :], noise)
    assert flagged.shape == (4, 5, 4)
    rates = rates_of(noise)
    for (i, t), (j, f) in itertools.product(enumerate(theta), enumerate(phi)):
        assert np.max(np.abs(flagged[i, j] - ref_flagged(t, f, *rates))) <= 1e-12


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
    for steps in ([(0, u)], [CX, (1, u)]):
        with pytest.raises(ValueError, match="only a phase gate"):
            steps_unitary(steps)


def dense_action(m, r, axis):
    """The 2x2 gate `m` on `axis` of the 16 entries r (4 row + column), axis 0 Alice's
    row bit and 1 Bob's, every entry by the full rule out[i] = m[i][0] r0 + m[i][1] r1,
    whatever the gate."""
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
    """`steps_unitary` of a random u1 and CX list that starts with a u1 on `qubit`, over a
    batch of nine, equals value for value the 16 entries built step by step from the
    identity: each u1 by the dense 2x2 action on its qubit's row bit, each CX as the swap
    of rows |10> and |11>."""
    rng = np.random.default_rng(seed)

    def phase(q):
        return q, gates.u1(rng.uniform(-2 * math.pi, 2 * math.pi, 9))

    steps = [phase(qubit)] + [CX if rng.random() < 0.3 else phase(int(rng.integers(2)))
                              for _ in range(11)]
    r = list(np.broadcast_to(np.eye(4, dtype=complex), (9, 4, 4)).reshape(9, 16).T)
    for step in steps:
        if step is CX:
            r = [r[4 * row + column] for row in (0, 1, 3, 2) for column in range(4)]
        else:
            r = dense_action(engine._entries(step[1]), r, 1 - step[0])
    assert np.array_equal(steps_unitary(steps), np.stack(r, axis=-1).reshape(9, 4, 4))


# A step is "cx", (qubit, u3 angles) or (qubit, (u1 angle,)); drawn lists put CNOTs
# anywhere: leading, trailing, back to back, and around segments that touch one qubit.
# An angle may be a list over one batch axis.
one_qubit_steps = st.tuples(st.integers(0, 1), st.tuples(angles, angles, angles))
phase_steps = st.tuples(st.integers(0, 1), st.tuples(angles))
step_lists = st.lists(st.one_of(st.just("cx"), phase_steps), max_size=14)
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


def random_phase(rng):
    return gates.u1(rng.uniform(-math.pi, math.pi))


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

    def test_nan_angle_rejected_by_the_engine(self):
        with pytest.raises(ValueError, match="non-finite probability"):
            flagged_probabilities([0.3, np.nan], [0.4, 0.5], QUIET)


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
    """States as the checks build them: each qubit's U|0> up to the first CNOT
    (`first_columns`), then phases and CNOTs as one unitary."""

    def test_first_columns_of_each_qubit(self):
        # a qubit's later gates multiply on the left, its rate counts its own gates,
        # and a qubit with no gate keeps |0> at rate 0
        noise = NoiseModel(0.1, 0.5, 0.0, 0.0)
        (alice, p_a), (bob, p_b) = first_columns([(1, H), (0, X), (1, Z)], noise)
        np.testing.assert_allclose(alice, np.array([1, -1]) / np.sqrt(2), atol=1e-15)
        np.testing.assert_array_equal(bob, [0, 1])
        assert abs(p_a - 0.19) <= 1e-15 and abs(p_b - 0.1) <= 1e-15
        assert first_columns([(0, X)], noise)[0] == ((1.0, 0.0), 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(angles, angles, angles), max_size=4),
           st.lists(st.tuples(angles, angles, angles), max_size=4), rates, st.booleans())
    @example([], [], 0.3, False)
    @example([(0.4, 1.0, 2.0)] * 4, [(2.5, 0.1, 3.0)] * 4, 1.0, True)
    def test_first_columns_of_general_gates(self, alice, bob, p1, batched):
        """Each qubit's column is the first column of the dense product of its u3 gates,
        later gates on the left, and its rate is 1 - (1 - p1)^n for its n gates; the
        qubits' steps interleaved, scalar or over a batch of three."""
        scale = np.array([1.0, 0.5, -2.0]) if batched else 1.0

        def u3s(drawn):
            return [gates.u3(*(scale * a for a in angles)) for angles in drawn]

        own = {1: u3s(alice), 0: u3s(bob)}
        steps = [step for pair in itertools.zip_longest(
            [(1, u) for u in own[1]], [(0, u) for u in own[0]]) for step in pair if step]
        for (column, p), qubit in zip(first_columns(steps, NoiseModel(p1, 0.0, 0.0, 0.0)), (1, 0)):
            dense = np.eye(2, dtype=complex)
            for u in own[qubit]:
                dense = u @ dense
            got = np.stack(np.broadcast_arrays(*column), axis=-1)
            assert np.max(np.abs(got - dense[..., 0])) <= 1e-15
            assert p == 1.0 - (1.0 - p1) ** len(own[qubit])

    def test_identity_leaves_state(self):
        # an identity gate leaves a qubit at |0>, and the identity as a phase gate
        # leaves a full state
        for qubit in (0, 1):
            assert first_columns([(qubit, I2)], QUIET) == (((1.0, 0.0), 0.0),) * 2
        rng = np.random.default_rng(0)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = pure(amps / np.linalg.norm(amps))
        for qubit in (0, 1):
            u = steps_unitary([(qubit, I2)])
            np.testing.assert_allclose(u @ rho @ u.conj().T, rho, atol=1e-15)

    def test_cx_is_cnot_with_alice_as_control(self):
        # from each basis product |a b>, X on the qubits whose bit is 1, CX gives
        # |a, b xor a>: Alice, qubit 1 and the high bit, controls
        for a, b in np.ndindex(2, 2):
            steps = [(1, X)] * a + [(0, X)] * b
            (alice, _), (bob, _) = first_columns(steps, QUIET)
            psi = steps_unitary([CX]) @ np.kron(alice, bob)
            np.testing.assert_array_equal(psi, np.eye(4)[2 * a + (b ^ a)])

    def test_bell_pair(self):
        (alice, _), (bob, _) = first_columns([(1, H)], QUIET)
        psi = steps_unitary([CX]) @ np.kron(alice, bob)
        np.testing.assert_allclose(psi, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)

    def test_preparation_matches_closed_form(self):
        # prepared state at theta=30deg, phi=60deg against its closed form
        theta, phi = math.radians(30), math.radians(60)
        amps = np.array(
            [math.cos(theta), math.sin(theta), math.cos(theta),
             math.sin(theta) * np.exp(2j * phi)]
        ) / math.sqrt(2)
        rho = prepared_rho(theta, phi)
        np.testing.assert_allclose(rho, pure(amps), atol=1e-12)
        assert abs(np.trace(rho @ rho) - 1.0) < 1e-12
        assert abs(np.trace(rho) - 1.0) < 1e-12

    def test_flat_distribution_from_prepared_amplitudes(self):
        # prepared state at theta=45deg, phi=0: all amplitudes of magnitude 1/2
        rho = prepared_rho(math.pi / 4, 0.0)
        np.testing.assert_allclose(np.diagonal(rho).real, [0.25] * 4, atol=1e-12)


class TestChannels:
    """The engine's depolarizing channels, on the populations (`cnot_free_distributions`)
    and on the Pauli components (`flagged_probabilities`)."""

    def test_empty_circuit_is_identity(self):
        noise = NoiseModel(0.01, 0.05, 0.0, 0.0)
        assert first_columns([], noise) == (((1.0, 0.0), 0.0),) * 2
        np.testing.assert_array_equal(cnot_free_distributions([], noise), [1, 0, 0, 0])
        np.testing.assert_array_equal(steps_unitary([]), np.eye(4))

    def test_full_depolarizing_gives_maximally_mixed(self):
        # p1 = 1 leaves I/2 on a qubit with a gate and the other qubit untouched
        full = NoiseModel(1.0, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(
            cnot_free_distributions([(1, I2)], full), [0.5, 0, 0.5, 0], atol=1e-15
        )
        np.testing.assert_allclose(
            cnot_free_distributions([(1, I2), (0, I2)], full), [0.25] * 4, atol=1e-15
        )
        # p2 = 1 mixes the state at the preparation's CNOTs; later gates keep it mixed
        theta, phi = 0.6, 1.3
        got = flagged_probabilities(theta, phi, NoiseModel(0.0, 1.0, 0.0, 0.0))
        np.testing.assert_allclose(got, np.full(4, 0.25), atol=1e-15)
        np.testing.assert_allclose(got, ref_flagged(theta, phi, 0, 1, 0, 0), atol=1e-12)

    def test_small_p_matches_bruteforce_sum(self):
        p = 0.01
        paulis = [I2, X, np.array([[0, -1j], [1j, 0]]), Z]
        kraus = [math.sqrt(1 - 3 * p / 4) * paulis[0]] + [math.sqrt(p / 4) * o for o in paulis[1:]]
        rng = np.random.default_rng(12)
        for qubit in (0, 1):
            u = random_unitary(rng, 2)
            rho = ref.embed(u, qubit) @ ref.GROUND @ ref.embed(u, qubit).conj().T
            # brute-force 4-term sum, independent of the engine and of the reference's
            # Kraus operators
            expect = sum(ref.embed(k, qubit) @ rho @ ref.embed(k, qubit).conj().T for k in kraus)
            got = cnot_free_distributions([(qubit, u)], NoiseModel(p, 0.0, 0.0, 0.0))
            np.testing.assert_allclose(got, np.diagonal(expect).real, atol=1e-15)


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

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        steps = [(0, random_phase(rng)), CX, (1, random_phase(rng))]
        u = steps_unitary(steps)
        oracle = ref.embed(steps[2][1], 1) @ CNOT_HIGH_CTRL @ ref.embed(steps[0][1], 0)
        np.testing.assert_allclose(u, oracle, atol=1e-12)

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
