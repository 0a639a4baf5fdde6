"""Hardy two-qubit nonlocality experiment.

The prepared state (Alice = first ket symbol = qubit 1, Bob = qubit 0) is

    |psi> = cos(theta)/sqrt2 (|00> + |10>) + sin(theta)/sqrt2 (|01> + e^{2i phi} |11>)

built operationally as coupling(phi) applied after beam_splitter(pi/4) on
Alice and beam_splitter(theta) on Bob; the gate-level circuit, with its
measurement settings, is defined once, as `engine`'s step lists, and the
engine's closed form reads its gate counts from them.  Each party measures in the sigma_z
basis after one of two local rotations; outcome |0> maps to +1 and |1> to -1
for both parties.  That outcome mapping is the unique symmetric choice under
which the three zero conditions of Hardy's equations vanish identically for
this construction, and it is fixed here, not configurable.

The fourth joint probability, q = P(+1,+1 | A2,B2), has the closed form

    q(theta, phi) = | 1/2 cos(theta) cos(chi) (1 - e^{-2i phi}) |^2,
    cot(chi) = tan(theta) cos(phi),

which is positive exactly for the non-maximally entangled states that make
Hardy's argument run.
"""

from __future__ import annotations

import math

import numpy as np

# Concurrence closer than this to 0 (1) classifies as product (maximally
# entangled); parameters are exact inputs, so no fuzzier boundary is needed.
CLASSIFICATION_TOL = 1e-9

# The class names, indexed by (concurrence >= tol) + (concurrence > 1 - tol).
CLASSES = ("PS", "NMES", "MES")


def chi_of(theta, phi):
    """Angle chi in (0, pi) with cot(chi) = tan(theta) cos(phi).

    Evaluated as the half-plane arctangent of (1, tan(theta) cos(phi)), so at
    the tan(theta) singularity it degrades continuously to the limit (near 0
    or pi by the sign of cos(phi)) instead of failing.
    """
    return np.arctan2(1.0, np.tan(theta) * np.cos(phi))


def analytic_q(theta, phi):
    """Closed form of P(+1,+1 | A2,B2) for the ideal circuit."""
    chi = chi_of(theta, phi)
    amp = 0.5 * np.cos(theta) * np.cos(chi) * (1.0 - np.exp(-2j * phi))
    return np.abs(amp) ** 2


def q_max() -> float:
    """Largest attainable Hardy probability for two qubits: (5 sqrt5 - 11)/2."""
    return (5.0 * math.sqrt(5.0) - 11.0) / 2.0


def optimal_angles() -> tuple[float, float]:
    """theta = phi maximizing q: cos(2 theta) = 2 - sqrt5 (about 51.827 deg)."""
    theta = 0.5 * math.acos(2.0 - math.sqrt(5.0))
    return theta, theta


def concurrence(theta, phi):
    """Concurrence of the prepared state: |sin(2 theta) sin(phi)|."""
    return np.abs(np.sin(2.0 * theta) * np.sin(phi))


def classify(theta, phi):
    """Class "PS", "MES" or "NMES" of each point, by concurrence with CLASSIFICATION_TOL."""
    c = concurrence(theta, phi)
    index = (c >= CLASSIFICATION_TOL).astype(np.intp) + (c > 1.0 - CLASSIFICATION_TOL)
    return np.array(CLASSES)[index]
