"""The engine for the four Hardy experiments and the circuits' step lists.

Basis convention (fixed, tests pin it): basis index k = 2a + b encodes |a b>,
with Alice (qubit 1, CNOT control) as the high bit and Bob (qubit 0, CNOT
target) as the low bit.

Noise is symmetric depolarizing after every gate (Nielsen & Chuang, section
8.3.4): rate p1 after a one-qubit gate on qubit q, rho -> (1 - p1) rho + p1
(I/2 on q) (x) Tr_q rho, and rate p2 after a CNOT, rho -> (1 - p2) rho + p2
I/4; then each qubit's readout flips at its own symmetric rate.  The
noiseless case is the same engine with zero rates.  Inputs are validated
where they enter (NoiseModel, the CLI); the engine checks only its final
distributions.

`experiment_distributions`, which every sweep, probe and grid reaches,
reads the four experiments in closed form from the Pauli components of the
noisy state, with no density matrix.  The step lists stay the one circuit
definition, which the checks and the CNOT-free `reduced` circuits read.
Before a circuit's first CNOT each qubit evolves alone, as its U|0> and the
rate of its one channel (`first_columns`); after it the phase gates and CNOTs
permute the basis and put a phase on each column (`steps_unitary`).
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


def _entries(u) -> tuple:
    """A (..., 2, 2) gate as views of its entries ((u00, u01), (u10, u11)), each over the batch."""
    u = np.asarray(u)
    if u.shape[-2:] != (2, 2):
        raise ValueError(f"one-qubit gate must be (..., 2, 2), got shape {u.shape}")
    return tuple(tuple(u[..., i, j] for j in (0, 1)) for i in (0, 1))


def _qubit(step) -> int:
    qubit = step[0]
    if qubit not in (0, 1):
        raise ValueError(f"qubit must be 0 or 1, got {qubit!r}")
    return qubit


def steps_unitary(steps) -> np.ndarray:
    """Noiseless circuit steps, phase gates and CNOTs, composed into one (..., 4, 4)
    unitary: basis column k lands on basis state order[k] with phase[k].  A CX swaps
    |10> and |11>; u1 on qubit q multiplies phase[k] by its m11, the gate entry on the
    left (numpy's fused multiply-add rounds m r and r m differently), wherever order[k]
    has bit 1 << q.  Any other gate, with a non-zero off-diagonal entry or an m00 not
    exactly 1 anywhere, raises ValueError."""
    batch = np.broadcast_shapes(*(np.shape(s[1])[:-2] for s in steps if s is not CX))
    order, phase = [0, 1, 2, 3], [np.ones(batch or (1,), dtype=np.complex128)] * 4
    for step in steps:
        if step is CX:
            order = [(0, 1, 3, 2)[row] for row in order]
            continue
        m, bit = _entries(step[1]), 1 << _qubit(step)
        if m[0][1].any() or m[1][0].any() or not (m[0][0] == 1.0).all():
            raise ValueError("only a phase gate diag(1, e^{i lam}) acts on a full state")
        phase = [m[1][1] * x if row & bit else x for row, x in zip(order, phase)]
    u = np.zeros((batch or (1,)) + (4, 4), dtype=np.complex128)
    for k in range(4):
        u[..., order[k], k] = phase[k]
    return u.reshape(batch + (4, 4))


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


def _rate(n: int, noise) -> float:
    """The rate 1 - (1 - p1)^n of the one channel that n one-qubit gates' channels make."""
    return 1.0 - (1.0 - noise.p1) ** n


def _mixed(pair, p: float) -> list:
    """Each of (x0, x1) as (1 - p) x + p/2 (x0 + x1): a qubit's channel at rate p on
    its two populations, or on its two outcomes.  A readout flip at rate r is this mix
    at p = 2r, so p reaches 2 for a rate of 1 (a swap)."""
    if p == 0.0:
        return pair
    mean = (pair[0] + pair[1]) * (0.5 * p)
    return [x * (1.0 - p) + mean for x in pair]


def first_columns(steps, noise) -> tuple:
    """Each qubit's state after one-qubit `steps` from |00>, Alice's first: (U|0>, p) for
    (1 - p) U|0><0|U^dag + p I/2.  U|0> is the qubit's gates applied in order to (1.0,
    0.0), the gate entries on the left, and p = `_rate` of their count: the channel after
    each gate is covariant under the qubit's later gates, so its n channels become one,
    after them.  A qubit with no step keeps |0>, ((1.0, 0.0), 0.0)."""
    columns = []
    for qubit in (1, 0):
        own = [s[1] for s in steps if _qubit(s) == qubit]
        column = (1.0, 0.0)
        for m in map(_entries, own):
            column = tuple(m[i][0] * column[0] + m[i][1] * column[1] for i in (0, 1))
        columns.append((column, _rate(len(own), noise)))
    return tuple(columns)


def cnot_free_distributions(steps, noise) -> np.ndarray:
    """Outcome distribution (last axis, k = 2a + b) of one-qubit `steps` from |00>,
    checked: the product of the qubits' populations, each `_mixed` at its channel's rate,
    then each readout flip, `_mixed` at twice its rate over Bob's bit b, then Alice's a."""
    alice, bob = (_mixed([(x * np.conj(x)).real for x in column], p)
                  for column, p in first_columns(steps, noise))
    x = [alice[a] * bob[b] for a, b in np.ndindex(2, 2)]
    for bit, rate in ((1, noise.readout0), (2, noise.readout1)):
        for k in (0, 3 - bit):  # the other qubit's bit 0, then 1
            x[k], x[k | bit] = _mixed([x[k], x[k | bit]], 2.0 * rate)
    return check_distributions(np.stack(x, axis=-1))


def experiment_distributions(theta, phi, noise) -> np.ndarray:
    """Outcome distributions, shape (*batch, 4, 4): point, experiment, outcome k = 2a + b.

    In closed form from the Pauli components of the noisy state (R. Horodecki &
    M. Horodecki, Phys. Rev. A 54, 1838 (1996)), where a depolarizing channel only
    shrinks components.  With lam = phi, C = cos lam, S = sin lam, chi = chi_of(theta,
    lam), p(n) = `_rate(n, noise)` and d = 1 - p(1):

    - Before the first CNOT the state is a product: Alice's Bloch vector is (cA, 0, 0),
      Bob's cB (sin 2theta C, -sin 2theta S, cos 2theta), cA = d and cB = 1 - p(2).
    - Each later step maps the components.  A CX takes X_A -> X_A X_B, Y_A -> Y_A X_B,
      Y_B -> Z_A Y_B and Z_B -> Z_A Z_B; u1(alpha) rotates its qubit's (x, y) by alpha,
      and its channel shrinks every component that is not the identity on its qubit by
      d; the two deferred CNOT channels shrink all non-identity ones by g = (1 - p2)^2.
    - Alice's settings read her axes (-1, 0, 0) and (-cos 2lam, -sin 2lam, 0), Bob's
      (0, 0, 1) and (-sin 2chi C, -sin 2chi S, cos 2chi): the state's projections are
      x_i (Alice's setting i), y_j (Bob's j) and their correlation z_ij.
    - The channel after a setting and the readout flip scale its axis by kA or kB.

    Then P(a, b) = (1 + s_a kA x_i + s_b kB y_j + s_a s_b kA kB z_ij) / 4, s = +1 for
    outcome 0 and -1 for 1.  Factors of theta alone are computed on theta and of phi
    alone on phi: a theta column times a phi row equals the flat pairs bit for bit.
    """
    theta = np.asarray(theta, dtype=np.float64)
    lam = np.asarray(phi, dtype=np.float64)
    batch = np.broadcast_shapes(theta.shape, lam.shape)
    # A single point is a batch of one: numpy's scalar math may round differently from
    # its array loops, and a point must come out as it does in a batch.
    theta, lam = np.atleast_1d(theta, lam)
    # One-qubit gate counts (preparation_steps, alice_steps, bob_steps): Alice has 1 and
    # Bob 2 before the first CNOT, and each party's setting 1 is 1 gate and setting 2 is 3.
    d = c_a = 1.0 - _rate(1, noise)
    c_b = 1.0 - _rate(2, noise)
    # g d^2, g as 1 - the two CNOT channels' merged rate: it rounds as the goldens hold
    big_g = (1.0 - (1.0 - (1.0 - noise.p2) ** 2)) * d * d
    kept = {1: d, 2: 1.0 - _rate(3, noise)}
    kappa_a = {i: kept[i] * (1.0 - 2.0 * noise.readout1) for i in (1, 2)}
    kappa_b = {j: kept[j] * (1.0 - 2.0 * noise.readout0) for j in (1, 2)}
    cos2t = c_b * np.cos(2.0 * theta)  # theta alone
    k, b, sin2t = 1.0 - cos2t, d * cos2t, c_b * np.sin(2.0 * theta)
    cos, sin, cos2l = np.cos(lam), np.sin(lam), np.cos(2.0 * lam)  # lam alone
    sin_sq, cos_sq = sin * sin, cos * cos
    chi2 = 2.0 * chi_of(theta, lam)  # both
    cos2x, sin2x = np.cos(chi2), np.sin(chi2)
    h = sin2t * (cos * (1.0 - (1.0 - d) * sin_sq))
    k_sin, k_cos = k * sin_sq, k * cos_sq
    x = {1: -big_g * c_a * (1.0 - k_sin), 2: -big_g * c_a * (cos2l + k_sin)}
    y = {1: big_g * b, 2: big_g * (cos2x * b - sin2x * h)}
    w = {1: 1.0 - k_cos, 2: cos2l - k_cos}
    z = {(i, 1): -big_g * c_a * d * w[i] for i in (1, 2)}
    z.update({(i, 2): big_g * c_a * (sin2x * h - d * cos2x * w[i]) for i in (1, 2)})
    probs = []
    for i, j in EXPERIMENT_SETTINGS:
        alice, bob = kappa_a[i] * x[i], kappa_b[j] * y[j]
        corr = (kappa_a[i] * kappa_b[j]) * z[i, j]
        same, differ = 1.0 + corr, 1.0 - corr
        probs += [same + (alice + bob), differ + (alice - bob),
                  differ - (alice - bob), same - (alice + bob)]
    probs = np.stack(np.broadcast_arrays(*probs), axis=-1)
    probs *= 0.25
    return check_distributions(probs.reshape(batch + (4, 4)))


def check_distributions(probs) -> np.ndarray:
    """Reject distributions (last axis) that are non-finite, negative or not summing to 1."""
    if not np.isfinite(probs).all():
        raise ValueError("non-finite probability in outcome distribution")
    lowest = float(np.min(probs))
    if lowest < -DISTRIBUTION_TOL:
        raise ValueError(f"negative probability {lowest} in outcome distribution")
    # term by term: numpy's sum over a last axis of 4 costs more than the closed form
    total = sum(probs[..., k] for k in range(probs.shape[-1]))
    defect = float(np.max(np.abs(total - 1.0)))
    if defect > DISTRIBUTION_TOL:
        raise ValueError(f"outcome distribution sums differ from 1 by {defect}")
    return probs
