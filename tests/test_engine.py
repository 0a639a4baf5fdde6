"""Property tests of the batched engine against the dense Kraus-sum reference."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kraus_reference as ref
from hardysim.engine import (
    CX,
    FLAGGED_OUTCOME,
    evolve,
    experiment_distributions,
    experiment_states,
)
from hardysim import gates
from hardysim.hardy import analytic_q
from hardysim.noise import NoiseModel

angles = st.floats(0.0, math.pi)
rates = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(angles, angles, rates, rates, rates, rates)
def test_engine_matches_kraus_reference(theta, phi, p1, p2, readout0, readout1):
    noise = NoiseModel.from_rates(p1, p2, readout0, readout1)
    states = experiment_states([theta], [phi], noise)[0]
    assert np.max(np.abs(states - ref.final_states(theta, phi, p1, p2))) <= 1e-12
    dists = experiment_distributions([theta], [phi], noise)[0]
    expect = ref.distributions(theta, phi, p1, p2, readout0, readout1)
    assert np.max(np.abs(dists - expect)) <= 1e-12
    for rho in states:
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


@settings(max_examples=60, deadline=None)
@given(angles, angles)
def test_noiseless_engine_meets_closed_forms(theta, phi):
    dists = experiment_distributions([theta], [phi], NoiseModel.none())[0]
    flagged = dists[range(4), FLAGGED_OUTCOME]
    assert np.max(flagged[:3]) <= 1e-12
    assert abs(flagged[3] - analytic_q(theta, phi)) <= 1e-12



# A step is "cx" or (qubit, u3 angles); drawn lists put CNOTs anywhere:
# leading, trailing, back to back, and around segments that touch one qubit.
one_qubit_steps = st.tuples(st.integers(0, 1), st.tuples(angles, angles, angles))
step_lists = st.lists(st.one_of(st.just("cx"), one_qubit_steps), max_size=14)
mixed_states = st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)


def density_from(entries):
    """A full-rank mixed state A A^dag + I/10, normalised, from 32 real entries."""
    a = np.reshape(entries[:16], (4, 4)) + 1j * np.reshape(entries[16:], (4, 4))
    rho = a @ a.conj().T + 0.1 * np.eye(4)
    return rho / np.trace(rho).real


@settings(max_examples=200, deadline=None)
@given(step_lists, rates, rates, mixed_states)
@example(["cx", "cx"], 0.3, 0.4, [0.5] * 32)
@example(["cx", (0, (1.0, 2.0, 3.0)), (0, (0.5, 0.0, 1.5))], 0.2, 0.1, [0.3] * 32)
@example(
    [(1, (1.0, 2.0, 3.0)), (0, (0.7, 0.1, 0.2)), (1, (2.0, 0.3, 0.4)), "cx"], 0.5, 0.6, [-0.2] * 32
)
def test_fused_evolve_matches_step_by_step_kraus(steps, p1, p2, entries):
    rho = density_from(entries)
    engine_steps = [CX if s == "cx" else (s[0], gates.u3(*s[1])) for s in steps]
    reference_steps = [
        (ref.CNOT, ref.BOTH) if s == "cx" else (ref.u3(*s[1]), s[0]) for s in steps
    ]
    got = evolve(rho, engine_steps, NoiseModel.from_rates(p1, p2, 0.0, 0.0))
    assert np.max(np.abs(got - ref.run_steps(rho, reference_steps, p1, p2))) <= 1e-12
