"""Batched density-matrix engine for the four Hardy experiments.

Basis convention (fixed, tests pin it): basis index k = 2a + b encodes
|a b>, with Alice (qubit 1, CNOT control) as the high bit and Bob (qubit 0,
CNOT target) as the low bit.

Noise is symmetric depolarizing after every gate, applied in closed form
(Nielsen & Chuang, section 8.3.4): rate p1 after a one-qubit gate on qubit
q, rho -> (1 - p1) rho + p1 (I/2 on q) (x) Tr_q rho, and rate p2 after a
CNOT, rho -> (1 - p2) rho + p2 I/4.  A terminal symmetric readout flip at
rate r on each qubit is the same one-qubit mix at rate 2r on its outcome
bit (`_mixed`, the engine's one form of a one-qubit channel), over Bob's
bit and then Alice's.  The noiseless case is the same engine with zero
rates.  Inputs are validated where they enter (NoiseModel,
the CLI); the engine checks only its final distributions, never an
intermediate step.

Inside the engine a state is held as its 16 entries rho[a b, a' b'] (Alice
row, Bob row, Alice column, Bob column), entry 8a + 4b + 2a' + b', each an
array over the batch, so every operation is a few ufunc calls on whole
entries.  A 2x2 gate is held as its four entries (arrays over the batch, or
scalars for fixed gates).  A single point runs as a batch of one.

Every state is reached one way, and no dense gate acts on a full state.
Before a circuit's first CNOT each qubit has its own gates from |0>, so the
state there is the product rho_A (x) rho_B of two one-qubit states, built
entry by entry (`_product_state`).  `_run` applies the steps from that
CNOT on one at a time, each one-qubit gate followed by its channel, and
defers the CNOTs' channels to one at the end; for the preparation
(`prepared_state`) those one-qubit gates are all phase gates.  `_act`, the
one kernel that applies a gate to a full state, has one rule, for
diag(1, e^{i lam}), and refuses any other gate.  No CNOT follows the
settings, so `experiment_distributions` reads Alice's and Bob's in closed
form from the prepared entries, and `cnot_free_distributions` reads out a
circuit with no CNOT from its product state.  `steps_unitary` composes
phase gates and CNOTs into one (..., 4, 4) unitary.
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
# CX as a permutation of the 16 entries, 4 row + column: of the rows alone
# (CX U) and of rows and columns (CX rho CX).
_CX_ROWS = [4 * row + column for row in _CX_ORDER for column in range(4)]
_CX_BOTH = [4 * row + column for row in _CX_ORDER for column in _CX_ORDER]


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


def _act(m, r, axis: int, out=None) -> list:
    """The phase gate `m` applied to `axis` of the state r: on each pair (r0, r1) of
    entries that differ only there, r0 is kept and r1 becomes m[1][1] r1, with the gate
    entry on the left, as numpy's fused multiply-add rounds m r and r m differently.
    Any other gate, one with a non-zero off-diagonal entry or an m[0][0] that is not
    exactly 1 at some point of the batch, raises ValueError.  The result goes into the
    list `out` (a copy of r by default), which may be r itself."""
    if m[0][1].any() or m[1][0].any() or not (m[0][0] == 1.0).all():
        raise ValueError("only a phase gate diag(1, e^{i lam}) acts on a full state")
    bit = 8 >> axis
    out = list(r) if out is None else out
    for k in range(16):
        if k & bit:
            out[k] = m[1][1] * r[k]
    return out


def _conjugate(m, r, qubit: int) -> list:
    """U r U^dag, with U = `m` on `qubit`: rows on axis 1 - qubit, columns on 3 - qubit."""
    conj = tuple(tuple(np.conj(x) for x in row) for row in m)
    rows = _act(m, r, 1 - qubit)
    # `rows` is this call's own: its entries are replaced as they are used, so at most
    # one state besides r is alive, and the blocks numpy frees are reused at once
    return _act(conj, rows, 3 - qubit, rows)


def _qubit(step) -> int:
    qubit = step[0]
    if qubit not in (0, 1):
        raise ValueError(f"qubit must be 0 or 1, got {qubit!r}")
    return qubit


def _depolarize_qubit(r, p: float, qubit: int) -> list:
    """(1 - p) r + p (I/2 on `qubit`) (x) (partial trace of r over `qubit`)."""
    both = (8 >> (1 - qubit)) | (8 >> (3 - qubit))  # the qubit's row and column bits
    out = list(r)
    for k in range(16):
        if not k & both:  # k and k | both: the qubit is 0, then 1, in row and column
            out[k], out[k | both] = _mixed([r[k], r[k | both]], p)
        elif k & both != both:  # the qubit's row and column differ: scaled only
            out[k] = r[k] * (1.0 - p)
    return out


def _depolarize_both(r, p: float) -> list:
    """(1 - p) r + p I/4."""
    out = [x * (1.0 - p) for x in r]
    for k in (0, 5, 10, 15):  # the diagonal
        out[k] = out[k] + 0.25 * p
    return out


def _run(r, steps, noise) -> list:
    """Circuit steps, phase gates and CNOTs, applied in order to a state held as
    entries; returns new entries, `r` is not changed.

    A CNOT permutes the entries.  A phase gate is conjugated into the state and then
    followed by its own one-qubit depolarizing channel, at `_segment`'s rate
    1 - (1 - p1): in floating point that need not be p1, and the golden outputs hold
    this rate.  The post-CNOT channels commute with every unitary and with the
    one-qubit channel, so all k of them become one at 1 - (1 - p2)^k, last.
    """
    for step in steps:
        if step is CX:
            r = [r[k] for k in _CX_BOTH]
            continue
        qubit = _qubit(step)
        m, p = _segment([step], noise)
        r = _conjugate(m, r, qubit)
        if p != 0.0:
            r = _depolarize_qubit(r, p, qubit)
    p = 1.0 - (1.0 - noise.p2) ** sum(step is CX for step in steps)
    if p != 0.0:
        r = _depolarize_both(r, p)
    return r


def steps_unitary(steps) -> np.ndarray:
    """Noiseless circuit steps, phase gates and CNOTs, composed into one (..., 4, 4)
    unitary."""
    batch = np.broadcast_shapes(*(np.shape(s[1])[:-2] for s in steps if s is not CX))
    eye = np.broadcast_to(np.eye(4, dtype=np.complex128), (batch or (1,)) + (4, 4))
    u = [eye[..., k // 4, k % 4] for k in range(16)]
    for step in steps:
        if step is CX:
            u = [u[k] for k in _CX_ROWS]
        else:
            u = _act(_entries(step[1]), u, 1 - _qubit(step))
    return np.stack(np.broadcast_arrays(*u), axis=-1).reshape(batch + (4, 4))


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
    """One qubit's steps, no CNOT among them, in exactly merged form: (their product,
    later gates on the left; the rate 1 - (1 - p1)^n of the one channel after them).
    The channel after each gate is covariant under the qubit's later gates, so the n
    channels become one, after the product."""
    m = _entries(steps[0][1])
    for step in steps[1:]:
        m = _times(_entries(step[1]), m)
    return m, 1.0 - (1.0 - noise.p1) ** len(steps)


def _mixed(pair, p: float) -> list:
    """Each of (x0, x1) as (1 - p) x + p/2 (x0 + x1): a qubit's channel at rate p on
    its two diagonal blocks (it adds to no other) or on its two outcomes.  A readout
    flip at rate r is this mix at p = 2r, so p reaches 2 for a rate of 1 (a swap)."""
    if p == 0.0:
        return pair
    mean = (pair[0] + pair[1]) * (0.5 * p)
    return [x * (1.0 - p) + mean for x in pair]


def _factor(steps, noise) -> tuple:
    """One qubit's state after its `steps` from |0>, no CNOT among them, as entries
    ((rho00, rho01), (rho10, rho11)): (1 - p) U|0><0|U^dag + p I/2, (U, p) from `_segment`."""
    if not steps:  # the qubit stays |0>
        return (1.0, 0.0), (0.0, 0.0)
    m, p = _segment(steps, noise)
    column = m[0][0], m[1][0]  # U|0>
    low, high = _mixed([(x * np.conj(x)).real for x in column], p)
    cross = column[0] * np.conj(column[1]) * (1.0 - p)
    return (low, cross), (np.conj(cross), high)


def _product_state(steps, noise) -> list:
    """The state after `steps` from |00>, no CNOT among them: each qubit evolves alone,
    so the state is rho_A (x) rho_B, its 16 entries products of `_factor` entries."""
    alice, bob = (_factor([s for s in steps if _qubit(s) == q], noise) for q in (1, 0))
    return [alice[a][a2] * bob[b][b2] for a, b, a2, b2 in np.ndindex(2, 2, 2, 2)]


def _weights(m) -> list:
    """Each row k of a one-qubit gate M as (|M_k0|^2, |M_k1|^2, M_k0 conj(M_k1)): the weights
    of x00, x11 and x01 (conj for x10) in outcome k of M applied to a one-qubit block x."""
    return [(abs(x) ** 2, abs(y) ** 2, x * np.conj(y)) for x, y in m]


def _alice_blocks(r, m, p: float) -> list:
    """Alice's diagonal blocks D[a] = rho'[a y, a y'] of rho' = her setting `m`, then her
    channel at rate p, applied to the state r: at y y' = 00, 11 and 01, each over a.

    D[a] = |M_a0|^2 rho[0y, 0y'] + |M_a1|^2 rho[1y, 1y'] + M_a0 conj(M_a1) rho[0y, 1y']
    + conj(M_a0 conj(M_a1)) rho[1y, 0y']: her channel adds to these blocks alone.
    """
    terms = _weights(m)
    blocks = []
    for y, y2 in ((0, 0), (1, 1), (0, 1)):
        x = {(a, a2): r[8 * a + 4 * y + 2 * a2 + y2] for a in (0, 1) for a2 in (0, 1)}
        d = [u * x[0, 0] + v * x[1, 1] + c * x[0, 1] + np.conj(c) * x[1, 0] for u, v, c in terms]
        blocks.append(_mixed(d, p))
    return blocks


def _read_out(probs, noise) -> np.ndarray:
    """Ideal outcome probabilities (last axis, k = 2a + b) through each qubit's symmetric
    readout flip, checked.  A flip at rate r is `_mixed` at 2r: readout0 over Bob's bit b,
    then readout1 over Alice's bit a."""
    x = [probs[..., k] for k in range(4)]
    for bit, rate in ((1, noise.readout0), (2, noise.readout1)):
        for k in (0, 3 - bit):  # the other qubit's bit 0, then 1
            x[k], x[k | bit] = _mixed([x[k], x[k | bit]], 2.0 * rate)
    return check_distributions(np.stack(x, axis=-1))


def cnot_free_distributions(steps, noise) -> np.ndarray:
    """Outcome distribution (last axis, k = 2a + b) of one-qubit `steps` from |00>, no
    CNOT among them, checked: the diagonal of their product state, read out."""
    r = _product_state(steps, noise)
    return _read_out(np.stack([r[k].real for k in (0, 5, 10, 15)], axis=-1), noise)


def prepared_state(theta, lam, noise) -> list:
    """The state after `preparation_steps(theta, lam)` from |00>, as its 16 entries over
    the batch (theta and lam arrays of at least one dimension): a product up to the
    first CNOT, then `_run` on the rest, whose one-qubit gates are all phase gates."""
    steps = preparation_steps(theta, lam)
    first_cx = steps.index(CX)
    return _run(_product_state(steps[:first_cx], noise), steps[first_cx:], noise)


def experiment_distributions(theta, phi, noise) -> np.ndarray:
    """Outcome distributions, shape (*batch, 4, 4): point, experiment, outcome k = 2a + b.

    The preparation runs once (`prepared_state`).  No CNOT follows the settings, so each
    is read in closed form.  Each of Alice's keeps only her diagonal blocks
    D[a] = rho[a y, a y'], the measured part (`_alice_blocks`).
    Each of Bob's, one product M, reads them: P(a, b) = |M_b0|^2 D[a]_00 + |M_b1|^2 D[a]_11
    + 2 Re(M_b0 conj(M_b1) D[a]_01), then his channel mixes P(a, .).
    """
    theta = np.asarray(theta, dtype=np.float64)
    lam = np.asarray(phi, dtype=np.float64)
    batch = np.broadcast_shapes(theta.shape, lam.shape)
    # A single point is a batch of one: numpy's scalar math rounds complex products
    # differently from its array loops, and a point must come out as it does in a batch.
    theta, lam = np.atleast_1d(theta, lam)
    chi = chi_of(theta, lam)
    prepared = prepared_state(theta, lam, noise)
    blocks = [_alice_blocks(prepared, *_segment(alice_steps(i, lam), noise)) for i in (1, 2)]
    # D[a]_00, D[a]_11 and D[a]_01, each as (Alice's setting, a, batch)
    low, high, cross = (np.array([setting[n] for setting in blocks]) for n in range(3))
    low, high = low.real, high.real
    bob = {}  # Bob's setting: b -> P(a, b) as (Alice's setting, a, batch)
    for j in (1, 2):
        m, p = _segment(bob_steps(j, lam, chi), noise)
        terms = _weights(m)  # row b: M_b0, M_b1
        bob[j] = _mixed([u * low + v * high + 2.0 * (c * cross).real for u, v, c in terms], p)
    probs = [[bob[j][b][i - 1, a] for a in (0, 1) for b in (0, 1)] for i, j in EXPERIMENT_SETTINGS]
    probs = np.moveaxis(np.array(probs), (0, 1), (-2, -1)).reshape(batch + (4, 4))
    return _read_out(probs, noise)


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
