"""Named invariant suites behind the `validate` CLI command.

Each suite returns (name, passed, detail).

The zero-condition and closed-form-q suites both read one noiseless engine
batch over the whole 37 x 37 (theta, phi) grid (2.5-degree steps on
[0, 90]), evaluated once per run: theta as a column and phi as a row, so
the engine takes the sines and cosines of each on 37 angles, not 1369.

The suites that check identities at arbitrary angles take them from a
fixed, evenly spread sequence (the golden-ratio additive recurrence), not
from a random generator, so `validate` is deterministic and never imports
numpy.random.
"""

from __future__ import annotations

import math

import numpy as np

from . import gates
from .engine import first_columns, flagged_probabilities, preparation_steps, steps_unitary
from .hardy import analytic_q, classify, concurrence, optimal_angles, q_max
from .noise import NoiseModel

# Invariant checks on computed quantities use VALIDATION_TOL; exact-math
# assertions (decomposition identities etc.) use EXACT_TOL.
VALIDATION_TOL = 1e-10
EXACT_TOL = 1e-12

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _spread(count: int, low: float, high: float) -> np.ndarray:
    """`count` angles evenly spread over [low, high): low + (high - low) frac(k g),
    k = 1..count, with g = (sqrt 5 - 1)/2."""
    return low + (high - low) * np.mod(np.arange(1, count + 1) * _GOLDEN, 1.0)


def _suite_gate_unitarity() -> tuple[str, bool, str]:
    """Every gate family at 50 spread angles, checked as two stacks: the 2x2 gates
    (u1, u3, beam splitter, H, X) and the 4x4 ones (coupling, CX)."""
    theta, phi, lam = _spread(150, -2 * math.pi, 2 * math.pi).reshape(50, 3).T
    one_qubit = (gates.u1(lam), gates.u3(theta, phi, lam), gates.beam_splitter(theta),
                 gates.hadamard(), gates.pauli_x())
    two_qubit = (gates.coupling(phi), steps_unitary([gates.CX]))
    worst = 0.0
    for family in (one_qubit, two_qubit):
        gate = np.concatenate([g.reshape(-1, *g.shape[-2:]) for g in family])
        gram = np.conj(np.swapaxes(gate, -1, -2)) @ gate
        defect = np.max(np.abs(gram - np.eye(gate.shape[-1])))
        det = np.max(np.abs(np.abs(np.linalg.det(gate)) - 1.0))
        worst = max(worst, float(defect), float(det))
    return "gate-unitarity", worst <= VALIDATION_TOL, f"worst defect {worst:.2e}"


def _suite_beam_splitter_anchor() -> tuple[str, bool, str]:
    theta = _spread(200, -2 * math.pi, 2 * math.pi)
    worst = float(np.max(np.abs(gates.beam_splitter(theta) - gates.u3(2 * theta, 0.0, 0.0))))
    return "beam-splitter-anchor", worst <= EXACT_TOL, f"worst entry diff {worst:.2e}"


def _suite_coupling_identity() -> tuple[str, bool, str]:
    phi = _spread(200, 0.0, 2 * math.pi)
    composed = steps_unitary(gates.coupling_steps(phi))
    worst = float(np.max(np.abs(composed - gates.coupling(phi))))
    return "coupling-decomposition", worst <= EXACT_TOL, f"worst entry diff {worst:.2e}"


def _ideal_grid():
    """theta (37, 1) and phi (1, 37) in radians, the 2.5-degree grid as an outer
    product, and their noiseless flagged-outcome probabilities, shape (37, 37, 4) by
    experiment: one engine batch as returned, not measure_points' eps, whose clip at 0
    would hide a negative flagged q where q is exactly 0."""
    axis = np.radians(np.arange(0.0, 90.0 + 1e-9, 2.5))
    theta, phi = axis[:, None], axis[None, :]
    return theta, phi, flagged_probabilities(theta, phi, NoiseModel.none())


def _suite_zero_probabilities(flagged) -> tuple[str, bool, str]:
    worst = float(np.max(flagged[..., :3]))
    return "hardy-zero-probabilities", worst <= EXACT_TOL, f"worst residual {worst:.2e}"


def _suite_q_equivalence(theta, phi, flagged) -> tuple[str, bool, str]:
    worst = float(np.max(np.abs(flagged[..., 3] - analytic_q(theta, phi))))
    return "analytic-q-equivalence", worst <= VALIDATION_TOL, f"worst |diff| {worst:.2e}"


def prepared_psi(theta, phi) -> np.ndarray:
    """The noiseless prepared state's amplitudes, last axis k = 2a + b: the product of
    the two qubits' U|0> up to the first CNOT (`first_columns`), then the rest of the
    preparation, phase gates and CNOTs, as one unitary (`steps_unitary`)."""
    steps = preparation_steps(theta, phi)
    first_cx = steps.index(gates.CX)
    (alice, _), (bob, _) = first_columns(steps[:first_cx], NoiseModel.none())
    product = np.stack(np.broadcast_arrays(*(a * b for a in alice for b in bob)), axis=-1)
    return (steps_unitary(steps[first_cx:]) @ product[..., None])[..., 0]


def _suite_classification() -> tuple[str, bool, str]:
    cases = [
        ((0.0, 37.0), "PS"),
        ((63.0, 0.0), "PS"),
        ((90.0, 55.0), "PS"),
        ((45.0, 90.0), "MES"),
        ((51.827, 51.827), "NMES"),
        ((30.0, 60.0), "NMES"),
    ]
    theta, phi = np.radians([angles for angles, _ in cases]).T
    kinds = classify(theta, phi)
    c = concurrence(theta, phi)
    # Independent check from the prepared states: for a pure state with amplitudes
    # psi[2a + b], concurrence^2 = 4 det(Tr_Bob rho) = 4 |psi_00 psi_11 - psi_01 psi_10|^2.
    psi = prepared_psi(theta, phi)
    det = np.abs(psi[..., 0] * psi[..., 3] - psi[..., 1] * psi[..., 2]) ** 2
    failures = [
        (*angles, str(kind), expected)
        for (angles, expected), kind, defect in zip(cases, kinds, np.abs(c**2 - 4.0 * det))
        if kind != expected or defect > VALIDATION_TOL
    ]
    return "state-classification", not failures, f"failures {failures}" if failures else "6 cases"


def _suite_optimum() -> tuple[str, bool, str]:
    theta_opt, phi_opt = optimal_angles()
    checks = [
        abs(float(analytic_q(theta_opt, phi_opt)) - q_max()) <= VALIDATION_TOL,
        abs(math.cos(2 * theta_opt) - (2.0 - math.sqrt(5.0))) <= EXACT_TOL,
    ]
    # Coarse scan must not beat the claimed maximum.
    angles = np.radians(np.arange(0.0, 360.0, 0.25))
    checks.append(float(np.max(analytic_q(angles, angles))) <= q_max() + VALIDATION_TOL)
    ok = all(checks)
    return "q-maximum-location", ok, f"checks {checks}"


def run_validation_suites():
    """Run all suites; returns a list of (name, passed, detail)."""
    theta, phi, flagged = _ideal_grid()
    return [
        _suite_gate_unitarity(),
        _suite_beam_splitter_anchor(),
        _suite_coupling_identity(),
        _suite_zero_probabilities(flagged),
        _suite_q_equivalence(theta, phi, flagged),
        _suite_classification(),
        _suite_optimum(),
    ]
