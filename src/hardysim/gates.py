"""Constructors for the named gates of the Hardy interferometer circuits.

Every constructor broadcasts: angle arrays of shape S give matrices of shape
S + (2, 2), or S + (4, 4) for two-qubit gates.  Angles are radians.

A circuit is a list of steps.  A step is either (qubit, matrix), a one-qubit
gate on qubit 0 (Bob) or 1 (Alice), or CX, the CNOT with Alice as control and
Bob as target.

The coupling decomposition binds the phase-gate angle to the coupling angle
(lambda = phi): basis-state phase tracking shows the five-step identity holds
exactly, with no residual global phase, only under that binding.
"""

from __future__ import annotations

import math

import numpy as np

CX = "cx"


def _matrix(a, b, c, d) -> np.ndarray:
    """Broadcast entries as [[a, b], [c, d]] along two new last axes, in complex128."""
    m = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = a, b, c, d
    return m


def u1(lam) -> np.ndarray:
    """Phase gate diag(1, e^{i lam})."""
    return _matrix(1.0, 0.0, 0.0, np.exp(1j * lam))


def u3(theta, phi, lam) -> np.ndarray:
    """General single-qubit rotation, standard hardware-gate convention.

    [[cos(t/2),            -e^{i lam} sin(t/2)      ],
     [e^{i phi} sin(t/2),   e^{i(phi+lam)} cos(t/2) ]]
    """
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    return _matrix(c, -np.exp(1j * lam) * s, np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c)


def beam_splitter(theta) -> np.ndarray:
    """Real rotation [[cos t, -sin t], [sin t, cos t]]; equals u3(2t, 0, 0)."""
    c = np.cos(theta)
    s = np.sin(theta)
    return _matrix(c, -s, s, c)


def coupling(phi) -> np.ndarray:
    """Two-qubit coupling diag(1, 1, 1, e^{2i phi}): phases only |11>."""
    phase = np.exp(2j * phi)
    diagonal = np.stack(np.broadcast_arrays(1.0 + 0j, 1.0 + 0j, 1.0 + 0j, phase), axis=-1)
    return diagonal[..., None] * np.eye(4)


def coupling_steps(lam) -> list:
    """Five-step CNOT + phase-gate realization of coupling(lam), as circuit steps.

    In order: u1(-lam) on Bob, CNOT, u1(lam) on Alice with u1(-lam) on Bob,
    CNOT, u1(2 lam) on Bob.  It equals coupling(phi) only for lam = phi.
    """
    return [(0, u1(-lam)), CX, (1, u1(lam)), (0, u1(-lam)), CX, (0, u1(2.0 * lam))]


def hadamard() -> np.ndarray:
    h = 1.0 / math.sqrt(2.0)
    return _matrix(h, h, h, -h)


def pauli_x() -> np.ndarray:
    return _matrix(0.0, 1.0, 1.0, 0.0)
