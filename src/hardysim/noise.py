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

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import FLAGGED_OUTCOME, experiment_distributions
from .hardy import HardyParams, analytic_q

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

    def scaled(self, factor: float) -> "NoiseModel":
        """All rates multiplied by `factor` (used for noise-ladder checks)."""
        flips = [float(m[0, 1]) for m in self.readout]
        return NoiseModel.from_rates(
            self.p1 * factor,
            self.p2 * factor,
            flips[0] * factor,
            flips[1] * factor,
            name=f"{self.name}*{factor:g}" if self.name else "",
        )


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


def _normalize_distribution(dist) -> np.ndarray:
    dist = np.asarray(dist, dtype=np.float64)
    if np.min(dist) < -1e-9:
        raise ValueError(f"negative probability {np.min(dist)} in distribution")
    total = float(dist.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {total}, not 1")
    dist = np.clip(dist, 0.0, None)
    return dist / dist.sum()


def _stream_tuple(stream) -> tuple[int, ...]:
    if isinstance(stream, int):
        return (stream,)
    return tuple(int(s) for s in stream)


def sample_shots(dist, cfg: ShotConfig, stream=0) -> np.ndarray:
    """Multinomial counts, shape (runs, outcomes); reproducible by construction.

    Run r draws from a generator seeded by (cfg.seed, *stream, r), so distinct
    experiments get independent streams and the counts do not depend on which
    runs, experiments or grid points were evaluated before.
    """
    dist = _normalize_distribution(dist)
    seed_base = cfg.seed & 0xFFFFFFFFFFFFFFFF
    counts = np.empty((cfg.runs, dist.size), dtype=np.int64)
    for run in range(cfg.runs):
        rng = np.random.default_rng((seed_base, *_stream_tuple(stream), run))
        counts[run] = rng.multinomial(cfg.shots_per_run, dist)
    return counts


def statistical_error(P: float, runs: int, shots_per_run: int = DEFAULT_SHOTS_PER_RUN) -> float:
    """sqrt(P (1-P) / (shots_per_run * runs)) for a pooled frequency P."""
    if not 0.0 <= P <= 1.0:
        raise ValueError(f"P must be in [0, 1], got {P}")
    if runs < 1 or shots_per_run < 1:
        raise ValueError("runs and shots_per_run must be >= 1")
    return math.sqrt(P * (1.0 - P) / (shots_per_run * runs))


@dataclass(frozen=True)
class EpsilonEstimates:
    """Estimated Hardy probabilities under noise, with statistical errors.

    eps1..eps3 and eps5 are pooled flagged-outcome frequencies of the four
    experiments.  Only four circuits exist: eps4 is not measurable on its own
    and is reported as the estimate eps5 - q_theory (eps4_estimated), which
    shot noise may push slightly below zero.  eps5_per_run keeps the per-run
    frequencies of the fourth experiment; eps5_run_std is their spread, which
    on real hardware exceeds the counting-statistics formula.
    """

    eps1: float
    eps2: float
    eps3: float
    eps5: float
    q_theory: float
    stat_err1: float
    stat_err2: float
    stat_err3: float
    stat_err5: float
    eps5_per_run: np.ndarray = field(repr=False)

    def __post_init__(self):
        for label, value in (("eps1", self.eps1), ("eps2", self.eps2),
                             ("eps3", self.eps3), ("eps5", self.eps5)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")
        per_run = np.asarray(self.eps5_per_run, dtype=np.float64).copy()
        per_run.setflags(write=False)
        object.__setattr__(self, "eps5_per_run", per_run)

    @property
    def eps4_estimated(self) -> float:
        return self.eps5 - self.q_theory

    @property
    def eps4(self) -> float:
        """Alias: the only experimentally accessible eps4 is the estimate."""
        return self.eps4_estimated

    @property
    def stat_err4(self) -> float:
        """Subtracting the constant q_theory leaves the error of eps5."""
        return self.stat_err5

    @property
    def eps5_run_std(self) -> float:
        return float(np.std(self.eps5_per_run))


def estimate_epsilons(counts_by_experiment, q_theory: float) -> EpsilonEstimates:
    """Pool per-run counts of the four experiments into epsilon estimates.

    `counts_by_experiment` holds four (runs, 4) count arrays in the order
    (A1,B1), (A2,B1), (A1,B2), (A2,B2).
    """
    counts = [np.asarray(c, dtype=np.int64) for c in counts_by_experiment]
    if len(counts) != 4:
        raise ValueError("expected counts for exactly four experiments")
    freqs = []
    errs = []
    per_run_eps5 = None
    for exp_idx, (c, flag) in enumerate(zip(counts, FLAGGED_OUTCOME)):
        if c.ndim != 2 or c.shape[1] != 4:
            raise ValueError(f"experiment {exp_idx + 1}: counts must have shape (runs, 4)")
        runs = c.shape[0]
        total = int(c.sum())
        if total <= 0 or total % runs != 0:
            raise ValueError(f"experiment {exp_idx + 1}: inconsistent shot totals")
        shots_per_run = total // runs
        pooled = float(c[:, flag].sum()) / total
        freqs.append(pooled)
        errs.append(statistical_error(pooled, runs, shots_per_run))
        if exp_idx == 3:
            per_run_eps5 = c[:, flag] / c.sum(axis=1)
    return EpsilonEstimates(
        eps1=freqs[0],
        eps2=freqs[1],
        eps3=freqs[2],
        eps5=freqs[3],
        q_theory=q_theory,
        stat_err1=errs[0],
        stat_err2=errs[1],
        stat_err3=errs[2],
        stat_err5=errs[3],
        eps5_per_run=per_run_eps5,
    )


def epsilons_from_distributions(
    dists, q_theory: float, cfg: ShotConfig | None, stream_base=()
) -> EpsilonEstimates:
    """Epsilon estimates from one point's four experiment distributions, shape (4, 4).

    With cfg=None the infinite-shot limit is returned: epsilons are the exact
    distributions' flagged entries and statistical errors are zero.
    `stream_base` namespaces the sampling streams (e.g. per grid point).
    """
    if cfg is None:
        values = [float(np.clip(d[flag], 0.0, 1.0)) for d, flag in zip(dists, FLAGGED_OUTCOME)]
        return EpsilonEstimates(
            eps1=values[0],
            eps2=values[1],
            eps3=values[2],
            eps5=values[3],
            q_theory=q_theory,
            stat_err1=0.0,
            stat_err2=0.0,
            stat_err3=0.0,
            stat_err5=0.0,
            eps5_per_run=np.array([values[3]]),
        )
    base = _stream_tuple(stream_base)
    counts = [
        sample_shots(dist, cfg, stream=base + (exp_idx,))
        for exp_idx, dist in enumerate(dists)
    ]
    return estimate_epsilons(counts, q_theory)


def measure_epsilons(
    params: HardyParams,
    noise: NoiseModel,
    cfg: ShotConfig | None,
    stream_base=(),
) -> EpsilonEstimates:
    """Full pipeline for one parameter point: four circuits, sample, estimate."""
    dists = experiment_distributions([params.theta], [params.phi], noise)[0]
    q = analytic_q(params.theta, params.phi)
    return epsilons_from_distributions(dists, q, cfg, stream_base)
