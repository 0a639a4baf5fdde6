"""Hardware-emulation layer: noise model, shot sampling, epsilon estimates.

The noise mechanism is symmetric depolarizing after every gate application
(rate p1 for single-qubit gates, p2 for CNOTs) plus a terminal symmetric
readout flip on each qubit (rates readout0, readout1).  The experiment
names error magnitudes only, so the mechanism is a modeling choice, kept
swappable behind NoiseModel; `engine` evolves the density matrices under it.

Randomness enters only at shot sampling: one generator per command, seeded
by `--seed`, draws all flagged counts in sweep order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import FLAGGED_OUTCOME

DEFAULT_SHOTS_PER_RUN = 8192

# Floor of every sampled flagged probability: the smallest normal double.
_P_FLOOR = np.finfo(np.float64).tiny


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


def estimate_batch(dists, cfg: ShotConfig | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Epsilon estimates for N points from their (N, 4, 4) experiment distributions.

    Returns (eps, stat_err, eps5_per_run): eps and stat_err have shape (N, 4)
    with columns eps1, eps2, eps3, eps5 (the flagged-outcome frequencies of
    the four experiments); eps5_per_run, shape (N, runs), holds the fourth
    experiment's per-run frequencies, whose spread on real hardware exceeds
    the counting-statistics formula.  eps4 is not measurable on its own; its
    estimate is eps5 - q_theory.

    With cfg=None the infinite-shot limit is returned: the exact flagged
    entries, zero errors and one "run".  Otherwise one generator, seeded by
    cfg.seed, draws all flagged counts in sweep order (point, experiment,
    run).  Only the flagged cell of each run's multinomial is used, and that
    cell alone is exactly Binomial(shots_per_run, p_flag).  The distributions
    are the engine's, already checked; they are only clipped at 0 and
    renormalised.  Each p_flag is then raised to at least the smallest
    normal double: numpy's binomial consumes nothing from the stream at
    p = 0 but does at any p > 0, so without the floor the sign of a
    roundoff-level ideal zero would shift every later count.  With it, such
    a cell uses the same draws whatever the sign of its roundoff (numpy's
    inversion path, one uniform), and still counts 0.
    """
    dists = np.asarray(dists, dtype=np.float64)
    flagged = dists[:, np.arange(4), FLAGGED_OUTCOME]
    if cfg is None:
        eps = np.clip(flagged, 0.0, 1.0)
        return eps, np.zeros_like(eps), eps[:, 3:].copy()
    p_flag = np.clip(flagged, 0.0, None) / np.clip(dists, 0.0, None).sum(axis=-1)
    p_flag = np.maximum(p_flag, _P_FLOOR)
    counts = np.random.default_rng(cfg.seed).binomial(
        cfg.shots_per_run, p_flag[..., None], size=(*p_flag.shape, cfg.runs)
    )
    eps = counts.sum(axis=-1) / (cfg.shots_per_run * cfg.runs)
    eps5_per_run = counts[:, 3] / cfg.shots_per_run
    return eps, statistical_error(eps, cfg.runs, cfg.shots_per_run), eps5_per_run
