"""Property tests of the batched engine against the dense Kraus-sum reference."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kraus_reference as ref
from hardysim.engine import FLAGGED_OUTCOME, experiment_distributions, experiment_states
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

