"""Reference simulation of the four Hardy experiments: dense matrices, Kraus sums.

Deliberately naive and independent of `hardysim`: every gate is embedded in
the 4x4 register with np.kron, each depolarizing channel is the explicit
Pauli Kraus sum, and the circuit is written out gate by gate as the hardware
runs it.  Tests compare the batched engine against it.

Basis index k = 2a + b: Alice (qubit 1, CNOT control) is the high bit.
"""

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SETTINGS = ((1, 1), (2, 1), (1, 2), (2, 2))
BOTH = None  # target of a two-qubit operator
GROUND = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)  # |00><00|


def u1(lam):
    return np.diag([1.0, np.exp(1j * lam)])


def u3(theta, phi, lam):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
    )


def depolarizing_kraus(p, num_targets):
    """Pauli Kraus set of rho -> (1 - p) rho + p I/dim."""
    paulis = (I2, X, Y, Z)
    if num_targets == 2:
        paulis = [np.kron(a, b) for a in paulis for b in paulis]
    count = len(paulis)
    weights = [1.0 - (count - 1) * p / count] + [p / count] * (count - 1)
    return [math.sqrt(w) * op for w, op in zip(weights, paulis)]


def embed(op, target):
    if target == 1:
        return np.kron(op, I2)
    if target == 0:
        return np.kron(I2, op)
    return op


def kraus_channel(rho, kraus, target):
    return sum(embed(k, target) @ rho @ embed(k, target).conj().T for k in kraus)


def circuit(theta, phi, a_index, b_index):
    """(gate, target) list of one experiment: preparation, Alice's then Bob's setting."""
    chi = math.atan2(1.0, math.tan(theta) * math.cos(phi))
    quarter = u3(math.pi / 2, 0, 0)
    steps = [
        (quarter, 1), (u3(2 * theta, 0, 0), 0),
        (u1(-phi), 0), (CNOT, BOTH), (u1(phi), 1), (u1(-phi), 0), (CNOT, BOTH), (u1(2 * phi), 0),
    ]
    if a_index == 1:
        steps += [(quarter, 1)]
    else:
        steps += [(u1(-2 * phi), 1), (quarter, 1), (u1(2 * phi), 1)]
    if b_index == 1:
        steps += [(u3(0, 0, 0), 0)]
    else:
        steps += [(u1(-phi), 0), (u3(2 * chi, 0, 0), 0), (u1(phi), 0)]
    return steps


def run_steps(rho, steps, p1, p2):
    """Apply each (gate, target) step, then its depolarizing Kraus channel, in order."""
    for gate, target in steps:
        rho = kraus_channel(rho, [gate], target)
        if target is BOTH:
            rho = kraus_channel(rho, depolarizing_kraus(p2, 2), BOTH)
        else:
            rho = kraus_channel(rho, depolarizing_kraus(p1, 1), target)
    return rho


def final_states(theta, phi, p1, p2):
    """Final density matrices, shape (4, 4, 4), of the experiments in SETTINGS."""
    return np.array(
        [run_steps(GROUND, circuit(theta, phi, a, b), p1, p2) for a, b in SETTINGS]
    )


def read_out(rho, readout0, readout1):
    """Reported-outcome distribution (last axis) of rho (..., 4, 4) after symmetric
    readout flips."""
    def confusion(r):
        return np.array([[1 - r, r], [r, 1 - r]])

    transfer = np.kron(confusion(readout1), confusion(readout0)).T
    true = np.real(np.diagonal(rho, axis1=-2, axis2=-1))
    return true @ transfer.T


def distributions(theta, phi, p1, p2, readout0, readout1):
    """Reported-outcome distributions, shape (4, 4), of the experiments in SETTINGS."""
    return read_out(final_states(theta, phi, p1, p2), readout0, readout1)
