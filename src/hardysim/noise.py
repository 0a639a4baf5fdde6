"""Hardware-emulation layer: noise model, shot sampling, epsilon estimates.

The noise mechanism is symmetric depolarizing after every gate application
(rate p1 for single-qubit gates, p2 for CNOTs) plus a terminal symmetric
readout flip on each qubit (rates readout0, readout1).  The experiment
names error magnitudes only, so the mechanism is a modeling choice, kept
swappable behind NoiseModel; `engine` reads each experiment's flagged
probability under it from the noisy state's Pauli components, its step lists
the one circuit definition.

Randomness enters only at shot sampling, which uses no numpy.random: each
flagged count is an exact binomial draw (inversion or Hormann's BTRD) from
uniforms that SplitMix64 hashes out of `--seed` and the draw's own counter,
so a point's counts depend only on the seed, its index and its own
distribution, and the same seed gives the same bytes on any numpy >= 1.24.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SHOTS_PER_RUN = 8192


class ProfileError(ValueError):
    """Raised for an unreadable or malformed noise-profile file."""


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate depolarizing rates plus symmetric per-qubit readout flips.

    readout0 and readout1 are the probabilities that qubit 0 (Bob) and
    qubit 1 (Alice) report the wrong bit, whatever the true one.
    """

    p1: float
    p2: float
    readout0: float
    readout1: float
    name: str = ""

    def __post_init__(self):
        for label in ("p1", "p2", "readout0", "readout1"):
            rate = getattr(self, label)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {rate}")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(0.0, 0.0, 0.0, 0.0, name="none")

    @classmethod
    def default_profile(cls) -> "NoiseModel":
        """Illustrative calibration; not a statement about any real device."""
        return cls(0.001, 0.01, 0.02, 0.02, name="default")


def load_noise_profile(path) -> NoiseModel:
    """Read a flat key=value profile: p1, p2, readout0, readout1, optional name.

    A `#` starts a comment anywhere on a line (so it also ends a name).  Each
    key appears once."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ProfileError(f"cannot read noise profile {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProfileError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in values:
            raise ProfileError(f"{path}:{lineno}: repeated key {key!r}")
        values[key] = value
    name = values.pop("name", path.stem)
    try:
        rates = {key: float(values.pop(key)) for key in ("p1", "p2", "readout0", "readout1")}
    except KeyError as exc:
        raise ProfileError(f"{path}: missing key {exc.args[0]}") from exc
    except ValueError as exc:
        raise ProfileError(f"{path}: non-numeric value ({exc})") from exc
    if values:
        raise ProfileError(f"{path}: unknown keys {sorted(values)}")
    try:
        return NoiseModel(name=name, **rates)
    except ValueError as exc:
        raise ProfileError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class ShotConfig:
    """Shot-sampling plan: `runs` repetitions of `shots_per_run` shots."""

    shots_per_run: int = DEFAULT_SHOTS_PER_RUN
    runs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.shots_per_run < 1:
            raise ValueError("shots_per_run must be >= 1")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        # Pooled counts are int64; a larger total would wrap around silently.
        if self.shots_per_run * self.runs >= 2**63:
            raise ValueError(
                f"shots_per_run * runs must be < 2**63, got {self.shots_per_run} * {self.runs}"
            )
        # Checked, not reduced modulo 2**64: a reduced seed would alias another.
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


def statistical_error(P, runs: int, shots_per_run: int = DEFAULT_SHOTS_PER_RUN):
    """sqrt(P (1-P) / (shots_per_run * runs)) for pooled frequencies P (scalar or array)."""
    P = np.asarray(P, dtype=np.float64)
    if np.any((P < 0.0) | (P > 1.0)):
        raise ValueError(f"P must be in [0, 1], got {P}")
    if runs < 1 or shots_per_run < 1:
        raise ValueError("runs and shots_per_run must be >= 1")
    return np.sqrt(P * (1.0 - P) / (shots_per_run * runs))


def estimate_batch(flagged, cfg: ShotConfig | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Epsilon estimates for N points from their (N, 4) flagged-outcome probabilities,
    one column per experiment (the engine's `flagged_probabilities`).

    Returns (eps, stat_err, eps5_per_run): eps and stat_err have shape (N, 4)
    with columns eps1, eps2, eps3, eps5 (the flagged-outcome frequencies of
    the four experiments); eps5_per_run, shape (N, runs), holds the fourth
    experiment's per-run frequencies, whose spread on real hardware exceeds
    the counting-statistics formula.  eps4 is not measurable on its own; its
    estimate is eps5 - q_theory.

    Both modes read one p, the probabilities clipped to [0, 1].  With
    cfg=None the infinite-shot limit is returned: p itself, zero errors and
    one "run".  Otherwise each flagged count is an exact binomial draw at p.
    The draws are laid out here alone: point i draws (3 + runs) i + s, where
    slots 0-2 pool experiments 1-3, Binomial(shots_per_run * runs, p), and
    slots 3 on are experiment 4's runs, Binomial(shots_per_run, p), whose
    mean is eps5 (a sweep, at runs = 1, draws 4 i + e).  Each point's counts
    depend only on cfg, its index and its own p.
    """
    p = np.clip(flagged, 0.0, 1.0)
    if cfg is None:
        return p, np.zeros_like(p), p[:, 3:].copy()
    total = cfg.shots_per_run * cfg.runs
    p_draw = np.repeat(p, [1, 1, 1, cfg.runs], axis=1)
    n = np.full(p_draw.shape, cfg.shots_per_run, dtype=np.int64)
    n[:, :3] = total
    counts = _sample_counts(cfg.seed, n.ravel(), p_draw.ravel()).reshape(p_draw.shape)
    eps = np.empty_like(p)
    eps[:, :3] = counts[:, :3] / total
    eps[:, 3] = counts[:, 3:].sum(axis=-1) / total
    eps5_per_run = counts[:, 3:] / cfg.shots_per_run
    return eps, statistical_error(eps, cfg.runs, cfg.shots_per_run), eps5_per_run


# Shot sampling without numpy.random.  Uniform k of a command is
# splitmix64_mix(seed + k * _GAMMA) >> 11 times 2**-53 (SplitMix64, Steele,
# Lea & Flood, OOPSLA 2014, used as a counter hash).  Draw d of a command
# (laid out by estimate_batch) reads its uniforms at counters
# (d << 17) | (attempt << 1) | which (distinct while d < 2**47, far more
# draws than memory holds), so each count depends only on the seed, d and its
# own (n, p), whatever the blocks.  Every uint64 constant and shift
# is an np.uint64, so no promotion rule changes a bit between numpy releases.
_GAMMA = 0x9E3779B97F4A7C15
_ATTEMPT_BITS = 16
_DRAW_STRIDE = np.uint64((_GAMMA << (_ATTEMPT_BITS + 1)) % 2**64)
_BLOCK_DRAWS = 2**14  # draws per block; a count does not depend on it
_INVERSION_MEAN = 10.0  # n p below this: inversion; from it on: BTRD
# Stirling-series corrections fc(k) = ln k! - (k + 1/2) ln(k + 1) + k + 1 - ln(2 pi) / 2
# for k < 10; BTRD takes the series from k = 10 on.
_FC_TABLE = np.array(
    [math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + k + 1 - 0.5 * math.log(2 * math.pi)
     for k in range(10)]
)


def splitmix64_mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function of a uint64 array, computed in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _uniforms(seed: int, draws: np.ndarray, attempt: int, which: int) -> np.ndarray:
    """Uniforms in [0, 1) of `draws` (uint64 draw indices) for one attempt and slot."""
    if attempt >> _ATTEMPT_BITS:
        raise RuntimeError(f"binomial sampler rejected a draw {attempt} times")
    offset = np.uint64((seed + ((attempt << 1) | which) * _GAMMA) % 2**64)
    z = draws * _DRAW_STRIDE
    z += offset
    return (splitmix64_mix(z) >> np.uint64(11)) * 2.0**-53


def _sample_counts(seed: int, n: np.ndarray, p: np.ndarray):
    """Int64 counts of the flat int64 `n` and float64 `p`: count d is
    Binomial(n[d], p[d]), drawn at counter d.

    Attempts go in passes: pass a makes attempt a of every draw still
    pending, in blocks of _BLOCK_DRAWS draws, and leaves the draws it rejects
    to the next pass.  A count does not depend on the blocks or the passes.
    p > 0.5 draws n - Binomial(n, 1 - p), in int64, so p = 1 gives exactly
    n; p = 0 gives 0 and draws nothing.  n p < 10 takes sequential
    inversion, the rest Hormann's BTRD.  The flipped p and the float n are
    made per block, so the memory they take does not grow with the draws.
    """
    counts = np.zeros(p.size, dtype=np.int64)
    pending = np.arange(p.size)
    attempt = 0
    while pending.size:
        rejected = [pending[:0]]
        for lo in range(0, pending.size, _BLOCK_DRAWS):
            draws = pending[lo : lo + _BLOCK_DRAWS]
            block_p = p.take(draws)
            flip = block_p > 0.5
            block_p = np.where(flip, 1.0 - block_p, block_p)
            nf = n.take(draws).astype(np.float64)
            mean = nf * block_p
            for method, mine in ((_inversion, (block_p > 0.0) & (mean < _INVERSION_MEAN)),
                                 (_btrd, mean >= _INVERSION_MEAN)):
                chosen = np.flatnonzero(mine)
                if chosen.size:
                    ids = draws.take(chosen)
                    counts[ids], again = method(seed, ids.astype(np.uint64), attempt,
                                                nf.take(chosen), block_p.take(chosen))
                    rejected.append(ids.take(again))
            flipped = draws.take(np.flatnonzero(flip))
            counts[flipped] = n.take(flipped) - counts.take(flipped)
        pending = np.concatenate(rejected)
        attempt += 1
    return counts


def _inversion(seed: int, draws, attempt: int, n, p):
    """Sequential inversion from 0, one uniform: (counts, rejected positions).
    A search past n p + 10 sqrt(n p q + 1) (or n), reachable only by roundoff
    in the running sum, rejects the draw."""
    u = _uniforms(seed, draws, attempt, 0)
    pmf = np.exp(n * np.log1p(-p))  # q ** n
    out = np.zeros(draws.size)
    live = np.flatnonzero(u > pmf)
    u, pmf, n, p = (a.take(live) for a in (u, pmf, n, p))
    q = 1.0 - p
    ratio, bound = p / q, np.minimum(n, n * p + 10.0 * np.sqrt(n * p * q + 1.0))
    rejected = [np.zeros(0, dtype=np.intp)]
    k = 0
    while live.size:
        k += 1
        over = k > bound
        u -= pmf
        pmf *= (n - (k - 1)) / k * ratio
        stop = u <= pmf
        out[live[stop & ~over]] = k
        rejected.append(live[over])
        keep = np.flatnonzero(~(stop | over))
        live, u, pmf, n, ratio, bound = (a.take(keep) for a in (live, u, pmf, n, ratio, bound))
    return out, np.concatenate(rejected)


def _fc(k):
    """Hormann's Stirling correction fc(k), k >= 0 (floats holding integers)."""
    x = k + 1.0
    x2 = x * x
    fc = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / x2) / x2) / x
    small = np.flatnonzero(k < 10)
    fc[small] = _FC_TABLE.take(k.take(small).astype(np.intp))
    return fc


def _btrd(seed: int, draws, attempt: int, n, p):
    """Hormann's BTRD for n p >= 10, p <= 0.5 (J. Stat. Comput. Simul. 46,
    1993): (counts, rejected positions).  Step 1, the fast path, runs on every
    draw; the later steps, and their constants, only on the draws it leaves."""
    npq = n * p * (1.0 - p)
    sqrt_npq = np.sqrt(npq)
    b = 1.15 + 2.53 * sqrt_npq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b

    v = _uniforms(seed, draws, attempt, 0)
    # Step 1 on every draw: its value for a draw off the fast path (possibly
    # inf, from 0.5 - |u| = 0) is replaced below.
    u = v / v_r - 0.43
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.floor((2.0 * a / (0.5 - np.abs(u)) + b) * u + c)
    slow = np.flatnonzero(v > 0.86 * v_r)
    v, n, p, npq, sqrt_npq, a, b, c, v_r = (
        x.take(slow) for x in (v, n, p, npq, sqrt_npq, a, b, c, v_r))
    alpha = (2.83 + 5.1 / b) * sqrt_npq
    m = np.floor((n + 1.0) * p)
    # Step 2: a second uniform.
    w = _uniforms(seed, draws.take(slow), attempt, 1)
    tail = v >= v_r
    u = v / v_r - 0.93
    u = np.where(tail, w - 0.5, np.copysign(0.5, u) - u)
    v = np.where(tail, v, w * v_r)
    # Step 3.0: the candidate k; us = 0 (w = 0 in the tail) gives k = -inf.
    us = 0.5 - np.abs(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor((2.0 * a / us + b) * u + c)
        v = v * alpha / (a / (us * us) + b)
    km = np.abs(k - m)
    accept = (k >= 0.0) & (k <= n)
    # Step 3.2, far from the mode: the squeeze (v = 0 is accepted).
    far = np.flatnonzero(accept & (km > 15.0))
    km_f, npq_f = km.take(far), npq.take(far)
    with np.errstate(divide="ignore"):
        log_v = np.log(v)
    log_f = log_v.take(far)
    rho = (km_f / npq_f) * (((km_f / 3.0 + 0.625) * km_f + 1.0 / 6.0) / npq_f + 0.5)
    t = -km_f * km_f / (2.0 * npq_f)
    accept[far] = log_f < t - rho
    # Step 3.3 for the rest, near the mode or not decided by the squeeze:
    # log f(k) / f(m) in Stirling form.  (Near the mode, |k - m| <= 15, BTRD
    # takes the same ratio by its recursion, which here would take up to 15
    # passes.)
    exact = np.concatenate([np.flatnonzero(accept & (km <= 15.0)),
                            far.take(np.flatnonzero((log_f >= t - rho) & (log_f <= t + rho)))])
    k_e, n, m, p = (x.take(exact) for x in (k, n, m, p))
    r = p / (1.0 - p)
    nm = n - m + 1.0
    h = (m + 0.5) * np.log((m + 1.0) / (r * nm)) + _fc(m) + _fc(n - m)
    nk = n - k_e + 1.0
    accept[exact] = log_v.take(exact) <= (
        h + (n + 1.0) * np.log(nm / nk)
        + (k_e + 0.5) * np.log(nk * r / (k_e + 1.0)) - _fc(k_e) - _fc(n - k_e)
    )
    out[slow] = k
    return out, slow.take(np.flatnonzero(~accept))
