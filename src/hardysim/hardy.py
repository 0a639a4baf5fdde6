"""Hardy two-qubit nonlocality experiment.

The prepared state (Alice = first ket symbol = qubit 1, Bob = qubit 0) is

    |psi> = cos(theta)/sqrt2 (|00> + |10>) + sin(theta)/sqrt2 (|01> + e^{2i phi} |11>)

built operationally as coupling(phi) applied after beam_splitter(pi/4) on
Alice and beam_splitter(theta) on Bob; the gate-level circuit, with its
measurement settings, is defined once in `engine`.  Each party measures in the sigma_z
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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Concurrence closer than this to 0 (1) classifies as product (maximally
# entangled); parameters are exact inputs, so no fuzzier boundary is needed.
CLASSIFICATION_TOL = 1e-9


class StateKind(str, Enum):
    MES = "MES"
    PS = "PS"
    NMES = "NMES"


@dataclass(frozen=True)
class StateClass:
    """Entanglement class plus the concurrence it was decided on."""

    kind: StateKind
    concurrence: float


@dataclass(frozen=True)
class HardyParams:
    """Experiment parameters (radians) with the derived angles.

    chi solves cot(chi) = tan(theta) cos(phi) on (0, pi); lam is bound to phi
    (the coupling-decomposition identity requires it).
    """

    theta: float
    phi: float
    chi: float = field(init=False)
    lam: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "chi", chi_of(self.theta, self.phi))
        object.__setattr__(self, "lam", self.phi)

    @classmethod
    def from_degrees(cls, theta_deg: float, phi_deg: float) -> "HardyParams":
        return cls(math.radians(theta_deg), math.radians(phi_deg))


def chi_of(theta: float, phi: float) -> float:
    """Angle chi in (0, pi) with cot(chi) = tan(theta) cos(phi).

    Evaluated as the half-plane arctangent of (1, tan(theta) cos(phi)), so at
    the tan(theta) singularity it degrades continuously to the limit (near 0
    or pi by the sign of cos(phi)) instead of failing.
    """
    return math.atan2(1.0, math.tan(theta) * math.cos(phi))


def analytic_q(theta: float, phi: float) -> float:
    """Closed form of P(+1,+1 | A2,B2) for the ideal circuit."""
    chi = chi_of(theta, phi)
    amp = 0.5 * math.cos(theta) * math.cos(chi) * (1.0 - np.exp(-2j * phi))
    return float(abs(amp) ** 2)


def q_max() -> float:
    """Largest attainable Hardy probability for two qubits: (5 sqrt5 - 11)/2."""
    return (5.0 * math.sqrt(5.0) - 11.0) / 2.0


def optimal_angles() -> tuple[float, float]:
    """theta = phi maximizing q: cos(2 theta) = 2 - sqrt5 (about 51.827 deg)."""
    theta = 0.5 * math.acos(2.0 - math.sqrt(5.0))
    return theta, theta


def concurrence(theta: float, phi: float) -> float:
    """Concurrence of the prepared state: |sin(2 theta) sin(phi)|."""
    return abs(math.sin(2.0 * theta) * math.sin(phi))


def classify_state(params: HardyParams) -> StateClass:
    """Classify as PS / MES / NMES by concurrence with CLASSIFICATION_TOL."""
    c = concurrence(params.theta, params.phi)
    if c < CLASSIFICATION_TOL:
        kind = StateKind.PS
    elif c > 1.0 - CLASSIFICATION_TOL:
        kind = StateKind.MES
    else:
        kind = StateKind.NMES
    return StateClass(kind, c)
