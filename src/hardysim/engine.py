"""Batched density-matrix engine for the four Hardy experiments.

Basis convention (fixed, tests pin it): basis index k = 2a + b encodes
|a b>, with Alice (qubit 1, CNOT control) as the high bit and Bob (qubit 0,
CNOT target) as the low bit.  Density matrices carry any leading batch
shape: (..., 4, 4).

Noise is symmetric depolarizing after every gate, applied in closed form
(Nielsen & Chuang, section 8.3.4): rate p1 after a one-qubit gate on qubit
q, rho -> (1 - p1) rho + p1 (I/2 on q) (x) Tr_q rho, and rate p2 after a
CNOT, rho -> (1 - p2) rho + p2 I/4.  A terminal symmetric readout flip on
each qubit acts on the final diagonal.  The noiseless case is the same
engine with zero rates.  Inputs are validated where they enter (NoiseModel,
the CLI); the engine checks only its final distributions, never an
intermediate step.

`evolve` applies this model in exactly merged form, by the same section's
identities: per segment between CNOTs, one product of each qubit's gates
and one channel at the composed rate 1 - (1 - p1)^n; for the call, one
deferred channel at 1 - (1 - p2)^k for its k CNOTs.

Inside the engine rho is stored batch-last, shape (2, 2, 2, 2, *batch):
Alice row, Bob row, Alice column, Bob column, then the batch axes, so every
operation is a few ufunc calls over contiguous runs of the batch.  A 2x2
gate is held as its four entries (arrays over the batch, or scalars for
fixed gates), and one kernel, `_act`, applies it to one axis:
out[i] = m[i][0] r[0] + m[i][1] r[1], written into the halves of a new
state.  A gate acts on its qubit's row axis, then with conjugated entries
on the matching column axis; gate products multiply the entry lists; CX is
a fixed permutation of rows and columns; the channels act in closed form,
in place, on the same view.  `evolve` and `steps_unitary` take and return the
(..., 4, 4) layout, converting once each way; `experiment_distributions`
builds no final state, only what is measured.
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
# CX as a permutation of the 16 (row, column) pairs, 4 row + column: of the
# rows alone (CX U) and of rows and columns (CX rho CX).
_CX_ROWS = [4 * row + column for row in _CX_ORDER for column in range(4)]
_CX_BOTH = [4 * row + column for row in _CX_ORDER for column in _CX_ORDER]
_ALL = slice(None)


def _index(axis: int, value: int) -> tuple:
    """Index of `value` on one of the four leading axes of a batch-last state."""
    return (_ALL,) * axis + (value,)


def _diagonal_block(qubit: int, value: int) -> tuple:
    """Index of the block where `qubit` has `value` in both the row and the column."""
    return (_ALL, value, _ALL, value) if qubit == 0 else (value, _ALL, value)


def ground_state(shape=()) -> np.ndarray:
    """|00><00| for every point of a batch of the given shape."""
    rho = np.zeros(tuple(shape) + (4, 4), dtype=np.complex128)
    rho[..., 0, 0] = 1.0
    return rho


def _entries(u) -> tuple:
    """A (..., 2, 2) gate as views of its entries ((u00, u01), (u10, u11)), each over the batch."""
    u = np.asarray(u)
    if u.shape[-2:] != (2, 2):
        raise ValueError(f"one-qubit gate must be (..., 2, 2), got shape {u.shape}")
    return tuple(tuple(u[..., i, j] for j in (0, 1)) for i in (0, 1))


def _times(a, b) -> tuple:
    """Product a b of two gates held as entry lists."""
    return tuple(
        tuple(a[i][0] * b[0][k] + a[i][1] * b[1][k] for k in (0, 1)) for i in (0, 1)
    )


def _act(m, r, axis: int) -> np.ndarray:
    """`m` applied to `axis` of the batch-last r: out[i] = m[i][0] r[0] + m[i][1] r[1]."""
    low, high = r[_index(axis, 0)], r[_index(axis, 1)]
    out = np.empty(r.shape, dtype=np.complex128)
    for i in (0, 1):
        part = out[_index(axis, i)]
        np.multiply(m[i][0], low, out=part)
        part += m[i][1] * high
    return out


def _conjugate(m, r, qubit: int) -> np.ndarray:
    """U r U^dag, with U = `m` on `qubit`: rows on axis 1 - qubit, columns on 3 - qubit."""
    conj = tuple(tuple(np.conj(x) for x in row) for row in m)
    return _act(conj, _act(m, r, 1 - qubit), 3 - qubit)


def _batch_of(shapes, steps) -> tuple:
    """Broadcast batch shape of the given shapes and every gate among `steps`."""
    return np.broadcast_shapes(*shapes, *(np.shape(s[1])[:-2] for s in steps if s is not CX))


def _qubit(step) -> int:
    qubit = step[0]
    if qubit not in (0, 1):
        raise ValueError(f"qubit must be 0 or 1, got {qubit!r}")
    return qubit


def _broadcast(r, batch: tuple) -> np.ndarray:
    """The batch-last r as a read-only view broadcast to `batch`.

    Batch shapes align on the right, as in the (..., 4, 4) layout.
    """
    r = r.reshape((2, 2, 2, 2) + (1,) * (len(batch) + 4 - r.ndim) + r.shape[4:])
    return np.broadcast_to(r, (2, 2, 2, 2) + batch)


def _permute(r, pairs) -> np.ndarray:
    """r with its 16 (row, column) entries reordered by one of the fixed CX permutations."""
    return np.take(r.reshape((16,) + r.shape[4:]), pairs, axis=0).reshape(r.shape)


# The channels update r in place: `_run` applies them only to arrays that a
# gate or a permutation has just returned, never to its read-only input.
def _depolarize_qubit(r, p: float, qubit: int) -> np.ndarray:
    """(1 - p) r + p (I/2 on `qubit`) (x) (partial trace of r over `qubit`)."""
    low, high = _diagonal_block(qubit, 0), _diagonal_block(qubit, 1)
    reduced = (r[low] + r[high]) * (0.5 * p)
    r *= 1.0 - p
    r[low] += reduced
    r[high] += reduced
    return r


def _depolarize_both(r, p: float) -> np.ndarray:
    """(1 - p) r + p I/4."""
    r *= 1.0 - p
    flat = _flat(r)
    for k in range(4):
        flat[k, k] += 0.25 * p
    return r


def _flat(r) -> np.ndarray:
    """A batch-last state as (4, 4, *batch): row index 2a + b, column index 2a + b."""
    return r.reshape((4, 4) + r.shape[4:])


def _to_batch_last(rho) -> np.ndarray:
    """(..., 4, 4) as a (2, 2, 2, 2, ...) view."""
    rho = np.asarray(rho)
    view = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    return np.moveaxis(view, (-4, -3, -2, -1), (0, 1, 2, 3))


def _from_batch_last(r) -> np.ndarray:
    """Inverse of `_to_batch_last`, as a view."""
    return np.moveaxis(_flat(r), (0, 1), (-2, -1))


def _run(r, steps, noise) -> np.ndarray:
    """`evolve` on a batch-last state; returns a new batch-last state, `r` is not changed."""
    r = _broadcast(r, _batch_of([r.shape[4:]], steps))
    segment = {}  # qubit -> (product of its gates since the last CNOT, count)
    cx_count = 0
    for step in (*steps, None):  # None closes the last segment
        if step is CX or step is None:
            for qubit, (m, count) in segment.items():
                r = _conjugate(m, r, qubit)
                p = 1.0 - (1.0 - noise.p1) ** count
                if p != 0.0:
                    r = _depolarize_qubit(r, p, qubit)
            segment = {}
            if step is CX:
                r = _permute(r, _CX_BOTH)
                cx_count += 1
        else:
            qubit, m = _qubit(step), _entries(step[1])
            if qubit in segment:
                product, count = segment[qubit]
                segment[qubit] = (_times(m, product), count + 1)
            else:
                segment[qubit] = (m, 1)
    p = 1.0 - (1.0 - noise.p2) ** cx_count
    if p != 0.0:
        r = _depolarize_both(r, p)
    return r if r.flags.writeable else r.copy()  # the input itself when no step ran


def evolve(rho, steps, noise) -> np.ndarray:
    """Run circuit steps on rho, each followed by its depolarizing channel.

    Applied in exactly merged form.  Between CNOTs, each qubit's gates are
    multiplied into one 2x2 matrix, applied once, then followed by one
    depolarizing channel at the composed rate 1 - (1 - p1)^n: the channel
    commutes with gates on the other qubit and is covariant under gates on
    its own.  The post-CNOT channels commute with every unitary and with the
    one-qubit channel, so all k of them become one at 1 - (1 - p2)^k, last.
    """
    return _from_batch_last(_run(_to_batch_last(rho), steps, noise))


def steps_unitary(steps) -> np.ndarray:
    """Noiseless circuit steps composed into one (..., 4, 4) unitary."""
    u = _broadcast(_to_batch_last(np.eye(4)), _batch_of([], steps))
    for step in steps:
        if step is CX:
            u = _permute(u, _CX_ROWS)
        else:
            u = _act(_entries(step[1]), u, 1 - _qubit(step))
    return _from_batch_last(u if u.flags.writeable else u.copy())


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


def _segment(steps, noise) -> tuple:
    """One qubit's steps, no CNOT among them: (their product, later gates on the left;
    the rate 1 - (1 - p1)^n of the one channel after them)."""
    m = _entries(steps[0][1])
    for step in steps[1:]:
        m = _times(_entries(step[1]), m)
    return m, 1.0 - (1.0 - noise.p1) ** len(steps)


def _mixed(pair, p: float) -> list:
    """Each of (x0, x1) as (1 - p) x + p/2 (x0 + x1): a qubit's channel at rate p on
    its two diagonal blocks (it adds to no other) or on its two outcomes."""
    if p == 0.0:
        return pair
    mean = (pair[0] + pair[1]) * (0.5 * p)
    return [x * (1.0 - p) + mean for x in pair]


def _confusion(rate: float) -> np.ndarray:
    """One qubit's symmetric readout flip: reported bit r given true bit t, [t, r]."""
    return np.array([[1.0 - rate, rate], [rate, 1.0 - rate]])


def _through_readout(probs, noise) -> np.ndarray:
    """Ideal outcome probabilities (last axis) through the readout flips, checked."""
    if noise.readout0 or noise.readout1:
        transfer = np.kron(_confusion(noise.readout1), _confusion(noise.readout0))
        probs = (transfer @ probs[..., None])[..., 0]
    return check_distributions(probs)


def readout_distributions(rho, noise) -> np.ndarray:
    """Outcome probabilities of rho (diagonal, through the readout flips), checked."""
    return _through_readout(np.real(np.diagonal(rho, axis1=-2, axis2=-1)), noise)


def experiment_distributions(theta, phi, noise) -> np.ndarray:
    """Outcome distributions, shape (N, 4, 4): point, experiment, outcome k = 2a + b.

    The preparation runs once; each of Alice's settings keeps only her diagonal blocks
    D[a] = rho[a y, a y'], the measured part.  No CNOT follows Bob, so each of his settings,
    one product M, reads them in closed form: P(a, b) = |M_b0|^2 D[a]_00 + |M_b1|^2 D[a]_11
    + 2 Re(M_b0 conj(M_b1) D[a]_01), then his channel mixes P(a, .).
    """
    theta = np.asarray(theta, dtype=np.float64)
    lam = np.asarray(phi, dtype=np.float64)
    chi = chi_of(theta, lam)
    prepared = _run(_to_batch_last(ground_state()), preparation_steps(theta, lam), noise)
    blocks = []  # Alice's setting, a, y, y', batch
    for i in (1, 2):
        m, p = _segment(alice_steps(i, lam), noise)
        rows = _act(m, prepared, 0)
        d = [np.conj(m[a][0]) * rows[a, :, 0] + np.conj(m[a][1]) * rows[a, :, 1] for a in (0, 1)]
        blocks.append(_mixed(d, p))
    blocks = np.array(blocks)
    low, high, cross = blocks[:, :, 0, 0].real, blocks[:, :, 1, 1].real, blocks[:, :, 0, 1]
    bob = {}  # Bob's setting: b -> P(a, b) as (Alice's setting, a, batch)
    for j in (1, 2):
        m, p = _segment(bob_steps(j, lam, chi), noise)
        terms = [(abs(x) ** 2, abs(y) ** 2, x * np.conj(y)) for x, y in m]  # row b: M_b0, M_b1
        bob[j] = _mixed([u * low + v * high + 2.0 * (c * cross).real for u, v, c in terms], p)
    probs = [[bob[j][b][i - 1, a] for a in (0, 1) for b in (0, 1)] for i, j in EXPERIMENT_SETTINGS]
    return _through_readout(np.moveaxis(np.array(probs), (0, 1), (-2, -1)), noise)


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
