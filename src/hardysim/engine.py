"""Batched density-matrix engine for the four Hardy experiments.

Basis convention (fixed, tests pin it): basis index k = 2a + b encodes
|a b>, with Alice (qubit 1, CNOT control) as the high bit and Bob (qubit 0,
CNOT target) as the low bit.  Density matrices carry any leading batch
shape: (..., 4, 4).

Noise is symmetric depolarizing after every gate, applied in closed form
(Nielsen & Chuang, section 8.3.4): rate p1 after a one-qubit gate on qubit
q, rho -> (1 - p1) rho + p1 (I/2 on q) (x) Tr_q rho, and rate p2 after a
CNOT, rho -> (1 - p2) rho + p2 I/4.  A terminal per-qubit readout confusion
acts on the final diagonal.  The noiseless case is the same engine with
zero rates.  Inputs are validated where they enter (NoiseModel, the CLI);
the engine checks only its final distributions, never an intermediate step.

`evolve` applies this model in exactly merged form, by the same section's
identities: per segment between CNOTs, one product of each qubit's gates
and one channel at the composed rate 1 - (1 - p1)^n; for the call, one
deferred channel at 1 - (1 - p2)^k for its k CNOTs.  A 2x2 gate acts
elementwise on the (..., 2, 2, 2, 2) view of rho, on the left and then,
conjugated, on the right.
"""

from __future__ import annotations

import math

import numpy as np

from . import gates
from .gates import CX
from .hardy import chi_of

# Experiment order and the basis index each experiment flags:
# (a1,b1)->|00>, (a2,b1)->|01>, (a1,b2)->|10>, (a2,b2)->|00>.
EXPERIMENT_SETTINGS = ((1, 1), (2, 1), (1, 2), (2, 2))
FLAGGED_OUTCOME = (0, 1, 2, 0)

# Final distributions must be non-negative and sum to 1 within this.
DISTRIBUTION_TOL = 1e-9

_CX_ORDER = [0, 1, 3, 2]  # CNOT as a basis permutation: |10> <-> |11>
# Index blocks that pair up the two values of one qubit, by qubit.
_BLOCKS = {
    0: (slice(0, 4, 2), slice(1, 4, 2)),
    1: (slice(0, 2), slice(2, 4)),
}


def ground_state(shape=()) -> np.ndarray:
    """|00><00| for every point of a batch of the given shape."""
    rho = np.zeros(tuple(shape) + (4, 4), dtype=np.complex128)
    rho[..., 0, 0] = 1.0
    return rho


def _contract(m, r, axis: int, block: int):
    """sum_j m[..., i, j] r[..., j, ...]: the (..., 2, 2) matrix `m` on one axis of `r`.

    `axis` counts back from the end of the last `block` axes of `r`, each of
    size 2; the batch axes of `m` and `r` broadcast.  Two elementwise
    products, no stacked matmul.
    """
    before = (None,) * (block + axis)
    after = (None,) * (-1 - axis)
    rest = (slice(None),) * (-1 - axis)
    column = [m[(Ellipsis, *before, slice(None), j, *after)] for j in (0, 1)]
    half = [r[(Ellipsis, slice(j, j + 1), *rest)] for j in (0, 1)]
    return column[0] * half[0] + column[1] * half[1]


def _row_axis(u, qubit: int) -> int:
    """Axis of `qubit`'s row index in a (..., 2, 2, 2, 2) view; rejects non-2x2 `u`."""
    if qubit not in (0, 1):
        raise ValueError(f"qubit must be 0 or 1, got {qubit!r}")
    if np.shape(u)[-2:] != (2, 2):
        raise ValueError(f"one-qubit gate must be (..., 2, 2), got shape {np.shape(u)}")
    return -3 - qubit


def _split(op) -> np.ndarray:
    """(..., 4, 4) as its (..., 2, 2, 2, 2) view: Alice row, Bob row, Alice column, Bob column."""
    return op.reshape(op.shape[:-2] + (2, 2, 2, 2))


def _join(view) -> np.ndarray:
    """Inverse of `_split`."""
    return view.reshape(view.shape[:-4] + (4, 4))


def apply_one_qubit(rho, u, qubit: int) -> np.ndarray:
    """rho -> U rho U^dag with U = `u` on `qubit`, identity on the other."""
    row = _row_axis(u, qubit)
    left = _contract(u, _split(rho), row, 4)
    return _join(_contract(np.conj(u), left, row + 2, 4))


def apply_cx(rho) -> np.ndarray:
    """rho -> CX rho CX, a fixed permutation of rows and columns."""
    return rho[..., _CX_ORDER, :][..., _CX_ORDER]


def depolarize_one(rho, p: float, qubit: int) -> np.ndarray:
    """(1 - p) rho + p (I/2 on `qubit`) (x) (partial trace of rho over `qubit`)."""
    if p == 0.0:
        return rho
    low, high = _BLOCKS[qubit]
    reduced = rho[..., low, low] + rho[..., high, high]
    out = (1.0 - p) * rho
    out[..., low, low] += 0.5 * p * reduced
    out[..., high, high] += 0.5 * p * reduced
    return out


def depolarize_two(rho, p: float) -> np.ndarray:
    """(1 - p) rho + p I/4."""
    if p == 0.0:
        return rho
    return (1.0 - p) * rho + (0.25 * p) * np.eye(4)


def evolve(rho, steps, noise) -> np.ndarray:
    """Run circuit steps on rho, each followed by its depolarizing channel.

    Applied in exactly merged form.  Between CNOTs, each qubit's gates are
    multiplied into one 2x2 matrix, applied once, then followed by one
    depolarizing channel at the composed rate 1 - (1 - p1)^n: the channel
    commutes with gates on the other qubit and is covariant under gates on
    its own.  The post-CNOT channels commute with every unitary and with the
    one-qubit channel, so all k of them become one at 1 - (1 - p2)^k, last.
    """
    segment = {}  # qubit -> (product of its gates since the last CNOT, count)
    cx_count = 0
    for step in (*steps, None):  # None closes the last segment
        if step is CX or step is None:
            for qubit, (u, count) in segment.items():
                rho = apply_one_qubit(rho, u, qubit)
                rho = depolarize_one(rho, 1.0 - (1.0 - noise.p1) ** count, qubit)
            segment = {}
            if step is CX:
                rho = apply_cx(rho)
                cx_count += 1
        else:
            qubit, u = step
            if qubit in segment:
                product, count = segment[qubit]
                segment[qubit] = (_contract(u, product, -2, 2), count + 1)
            else:
                segment[qubit] = (u, 1)
    return depolarize_two(rho, 1.0 - (1.0 - noise.p2) ** cx_count)


def steps_unitary(steps) -> np.ndarray:
    """Noiseless circuit steps composed into one (..., 4, 4) unitary."""
    total = np.eye(4, dtype=np.complex128)
    for step in steps:
        if step is CX:
            total = total[..., _CX_ORDER, :]
        else:
            qubit, u = step
            total = _join(_contract(u, _split(total), _row_axis(u, qubit), 4))
    return total


def preparation_steps(theta, lam) -> list:
    """Hardy state: beam_splitter(pi/4) on Alice, beam_splitter(theta) on Bob, coupling."""
    return [
        (1, gates.u3(math.pi / 2.0, 0.0, 0.0)),
        (0, gates.u3(2.0 * theta, 0.0, 0.0)),
        *gates.coupling_steps(lam),
    ]


def alice_steps(index: int, lam) -> list:
    """Alice's setting as circuit steps.

    a1 = beam_splitter(pi/4); a2 = u1(2 lam) beam_splitter(pi/4) u1(-2 lam).
    """
    if index == 1:
        return [(1, gates.u3(math.pi / 2.0, 0.0, 0.0))]
    if index == 2:
        return [
            (1, gates.u1(-2.0 * lam)),
            (1, gates.u3(math.pi / 2.0, 0.0, 0.0)),
            (1, gates.u1(2.0 * lam)),
        ]
    raise ValueError(f"setting index must be 1 or 2, got {index}")


def bob_steps(index: int, lam, chi) -> list:
    """Bob's setting as circuit steps.

    b1 is the explicit identity u3(0,0,0); b2 = u1(lam) beam_splitter(chi) u1(-lam).
    """
    if index == 1:
        return [(0, gates.u3(0.0, 0.0, 0.0))]
    if index == 2:
        return [
            (0, gates.u1(-lam)),
            (0, gates.u3(2.0 * chi, 0.0, 0.0)),
            (0, gates.u1(lam)),
        ]
    raise ValueError(f"setting index must be 1 or 2, got {index}")


def experiment_steps(a_index: int, b_index: int, theta, lam, chi) -> list:
    """Whole gate sequence of one experiment as run on hardware: preparation, then settings."""
    return preparation_steps(theta, lam) + alice_steps(a_index, lam) + bob_steps(b_index, lam, chi)


def experiment_states(theta, phi, noise) -> np.ndarray:
    """Final density matrices, shape (N, 4, 4, 4), of the experiments in EXPERIMENT_SETTINGS.

    The preparation runs once and branches into Alice's two settings, each
    of which branches into Bob's two.
    """
    theta = np.asarray(theta, dtype=np.float64)
    lam = np.asarray(phi, dtype=np.float64)
    chi = chi_of(theta, lam)
    prepared = evolve(ground_state(theta.shape), preparation_steps(theta, lam), noise)
    after_alice = {a: evolve(prepared, alice_steps(a, lam), noise) for a in (1, 2)}
    bob = {b: bob_steps(b, lam, chi) for b in (1, 2)}
    return np.stack(
        [evolve(after_alice[a], bob[b], noise) for a, b in EXPERIMENT_SETTINGS], axis=-3
    )


def readout_distributions(rho, noise) -> np.ndarray:
    """Outcome probabilities of rho (diagonal, through the readout confusion), checked."""
    probs = np.real(np.diagonal(rho, axis1=-2, axis2=-1))
    if not noise.readout_is_trivial:
        transfer = np.kron(noise.readout[1].T, noise.readout[0].T)
        probs = (transfer @ probs[..., None])[..., 0]
    return check_distributions(probs)


def experiment_distributions(theta, phi, noise) -> np.ndarray:
    """Outcome distributions, shape (N, 4, 4): point, experiment, outcome k = 2a + b."""
    return readout_distributions(experiment_states(theta, phi, noise), noise)


def check_distributions(probs) -> np.ndarray:
    """Reject distributions (last axis) that are non-finite, negative or not summing to 1."""
    if not np.isfinite(probs).all():
        raise ValueError("non-finite probability in outcome distribution")
    lowest = float(np.min(probs))
    if lowest < -DISTRIBUTION_TOL:
        raise ValueError(f"negative probability {lowest} in outcome distribution")
    defect = float(np.max(np.abs(np.sum(probs, axis=-1) - 1.0)))
    if defect > DISTRIBUTION_TOL:
        raise ValueError(f"outcome distribution sums differ from 1 by {defect}")
    return probs
