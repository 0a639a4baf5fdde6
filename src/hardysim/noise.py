"""Hardware-emulation layer: noise model, shot sampling, epsilon estimates.

The noise mechanism is symmetric depolarizing after every gate application
(rate p1 for single-qubit gates, p2 for CNOTs) plus a terminal per-qubit
readout confusion matrix.  The experiment names error magnitudes only, so the
mechanism is a modeling choice, kept swappable behind NoiseModel; `engine`
evolves the density matrices under it.

Randomness enters only at shot sampling, where every (experiment, run) pair
derives its own generator from the master seed, so results do not depend on
the order in which points, experiments or runs are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import FLAGGED_OUTCOME, experiment_distributions
from .hardy import HardyParams

DEFAULT_SHOTS_PER_RUN = 8192


class ProfileError(ValueError):
    """Raised for an unreadable or malformed noise-profile file."""


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate depolarizing rates plus per-qubit readout confusion.

    readout[q][t, r] is the probability of reporting bit r given true bit t
    on qubit q (rows sum to 1).  Qubit 0 is Bob, qubit 1 is Alice.
    """

    p1: float
    p2: float
    readout: tuple[np.ndarray, np.ndarray]
    name: str = ""

    def __post_init__(self):
        for label, p in (("p1", self.p1), ("p2", self.p2)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {p}")
        mats = []
        for q, mat in enumerate(self.readout):
            mat = np.asarray(mat, dtype=np.float64)
            if mat.shape != (2, 2) or np.any(mat < 0):
                raise ValueError(f"readout matrix for qubit {q} must be 2x2 nonnegative")
            if np.max(np.abs(mat.sum(axis=1) - 1.0)) > 1e-12:
                raise ValueError(f"readout matrix rows for qubit {q} must sum to 1")
            mat = mat.copy()
            mat.setflags(write=False)
            mats.append(mat)
        object.__setattr__(self, "readout", tuple(mats))

    @classmethod
    def from_rates(
        cls, p1: float, p2: float, readout0: float, readout1: float, name: str = ""
    ) -> "NoiseModel":
        """Build from symmetric per-qubit readout flip probabilities."""
        def confusion(r: float) -> np.ndarray:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"readout flip rate must be in [0, 1], got {r}")
            return np.array([[1.0 - r, r], [r, 1.0 - r]])

        return cls(p1, p2, (confusion(readout0), confusion(readout1)), name)

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls.from_rates(0.0, 0.0, 0.0, 0.0, name="none")

    @classmethod
    def default_profile(cls) -> "NoiseModel":
        """Illustrative calibration; not a statement about any real device."""
        return cls.from_rates(0.001, 0.01, 0.02, 0.02, name="default")

    @property
    def readout_is_trivial(self) -> bool:
        return all(np.array_equal(m, np.eye(2)) for m in self.readout)


def load_noise_profile(path) -> NoiseModel:
    """Read a flat key=value profile: p1, p2, readout0, readout1, optional name."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ProfileError(f"cannot read noise profile {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ProfileError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
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
        return NoiseModel.from_rates(name=name, **rates)
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


def statistical_error(P, runs: int, shots_per_run: int = DEFAULT_SHOTS_PER_RUN):
    """sqrt(P (1-P) / (shots_per_run * runs)) for pooled frequencies P (scalar or array)."""
    P = np.asarray(P, dtype=np.float64)
    if np.any((P < 0.0) | (P > 1.0)):
        raise ValueError(f"P must be in [0, 1], got {P}")
    if runs < 1 or shots_per_run < 1:
        raise ValueError("runs and shots_per_run must be >= 1")
    return np.sqrt(P * (1.0 - P) / (shots_per_run * runs))


def estimate_batch(
    dists, cfg: ShotConfig | None, bases
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Epsilon estimates for N points from their (N, 4, 4) experiment distributions.

    Returns (eps, stat_err, eps5_per_run): eps and stat_err have shape (N, 4)
    with columns eps1, eps2, eps3, eps5 (the flagged-outcome frequencies of
    the four experiments); eps5_per_run, shape (N, runs), holds the fourth
    experiment's per-run frequencies, whose spread on real hardware exceeds
    the counting-statistics formula.  eps4 is not measurable on its own; its
    estimate is eps5 - q_theory.

    With cfg=None the infinite-shot limit is returned: the exact flagged
    entries, zero errors and one "run".  Otherwise run r of experiment e at
    point i draws from a generator seeded by (cfg.seed, *bases[i], e, r), so
    the counts do not depend on which points were evaluated before.  The
    distributions are the engine's, already checked; they are only clipped
    at 0 and renormalised.
    """
    dists = np.asarray(dists, dtype=np.float64)
    flagged = dists[:, np.arange(4), FLAGGED_OUTCOME]
    if cfg is None:
        eps = np.clip(flagged, 0.0, 1.0)
        return eps, np.zeros_like(eps), eps[:, 3:].copy()
    pvals = np.clip(dists, 0.0, None)
    pvals /= pvals.sum(axis=-1, keepdims=True)
    seed = cfg.seed & 0xFFFFFFFFFFFFFFFF
    hits = np.zeros(flagged.shape, dtype=np.int64)
    eps5_per_run = np.empty((len(dists), cfg.runs))
    for i, base in enumerate(bases):
        for exp, flag in enumerate(FLAGGED_OUTCOME):
            for run in range(cfg.runs):
                rng = np.random.default_rng((seed, *base, exp, run))
                hit = rng.multinomial(cfg.shots_per_run, pvals[i, exp])[flag]
                hits[i, exp] += hit
                if exp == 3:
                    eps5_per_run[i, run] = hit / cfg.shots_per_run
    eps = hits / (cfg.shots_per_run * cfg.runs)
    return eps, statistical_error(eps, cfg.runs, cfg.shots_per_run), eps5_per_run


def measure_epsilons(
    params: HardyParams, noise: NoiseModel, cfg: ShotConfig | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """estimate_batch for one parameter point (a batch of one, stream base ())."""
    dists = experiment_distributions([params.theta], [params.phi], noise)
    return tuple(a[0] for a in estimate_batch(dists, cfg, [()]))
