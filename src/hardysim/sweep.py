"""Parameter sweeps, performance measures, and the reduced-gate comparison.

Rows are emitted in sweep order (no internal sorting) so plotted curves match
the swept axis directly.  The CSV interface is fixed:

    theta_deg,phi_deg,q_theory,eps1,eps2,eps3,eps5,eps4_est,stat_err,class

one row per grid point, decimal points, at least six significant digits.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gates
from .engine import (
    evolve,
    experiment_distributions,
    experiment_steps,
    ground_state,
    readout_distributions,
)
from .hardy import (
    HardyParams,
    StateClass,
    StateKind,
    analytic_q,
    classify_state,
    concurrence,
    optimal_angles,
)
from .noise import (
    NoiseModel,
    ShotConfig,
    epsilons_from_distributions,
    measure_epsilons,
    sample_shots,
)

CSV_HEADER = "theta_deg,phi_deg,q_theory,eps1,eps2,eps3,eps5,eps4_est,stat_err,class"
_PROBABILITY_FIELDS = ("q_theory", "eps1", "eps2", "eps3", "eps5")

# Reference angle (degrees) for the shift and interval metrics: the diagonal
# parameter maximizing q, quoted at the customary 51.827.
REFERENCE_ANGLE_DEG = 51.827

# MES / PS points whose fourth-experiment value calibrates the error floor.
BASELINE_POINTS_DEG = ((45.0, 90.0), (0.0, 0.0), (90.0, 0.0), (45.0, 0.0), (90.0, 45.0))

# NMES points spanning the four q levels used for the min-q ladder.
NMES_LADDER_POINTS_DEG = (
    (51.827, 51.827),
    (55.0, 55.0),
    (45.0, 45.0),
    (30.0, 60.0),
    (60.0, 30.0),
    (10.0, 80.0),
    (80.0, 10.0),
)

# Stream namespaces keeping sampling independent across pipeline stages.
_STREAM_SWEEP = 0
_STREAM_BASELINE = 1
_STREAM_LADDER = 2
_STREAM_REDUCED = 3


class SweepCsvError(ValueError):
    """Malformed sweep CSV; carries the offending 1-based line number.

    Line 0 means the file itself was unusable (no line to point at).
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: angles, theoretical q, measured epsilons, class."""

    theta_deg: float
    phi_deg: float
    q_theory: float
    eps1: float
    eps2: float
    eps3: float
    eps5: float
    stat_err: float
    state_class: StateClass

    @property
    def eps4_estimated(self) -> float:
        return self.eps5 - self.q_theory


@dataclass(frozen=True)
class PerformanceReport:
    """The three performance measures extracted from one sweep."""

    min_distinguishable_q: float | None
    shift_deg: float
    delta_interval_deg: float
    eps4_fluctuation_std: float
    eps4_fluctuation_range: float

    def __post_init__(self):
        values = [self.shift_deg, self.delta_interval_deg,
                  self.eps4_fluctuation_std, self.eps4_fluctuation_range]
        if self.min_distinguishable_q is not None:
            values.append(self.min_distinguishable_q)
        if any(v < 0 for v in values):
            raise ValueError("performance measures must be nonnegative")
        if self.delta_interval_deg + 1e-12 < self.shift_deg:
            raise ValueError("delta interval cannot be smaller than the shift")


@dataclass(frozen=True)
class ReducedComparison:
    """Error of the full pipeline vs the few-gate preparation, same measurement."""

    variant: str
    full_eps: float
    reduced_eps: float
    full_gate_count: int
    reduced_gate_count: int


def grid_degrees(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive degree grid start, start+step, ..., stop."""
    if step <= 0:
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError("stop must be >= start")
    count = int(round((stop - start) / step))
    points = start + step * np.arange(count + 1)
    if points[-1] < stop - 1e-9:
        points = np.append(points, stop)
    return points


def substitute_singular(point_deg: float) -> float:
    """Replace angles on the tan singularity (90, 270, ...) by 0.01 deg less."""
    if abs(math.remainder(point_deg, 180.0)) > 90.0 - 1e-9:
        return point_deg - 0.01
    return point_deg


def diagonal_points(start_deg: float, stop_deg: float, step_deg: float) -> list[float]:
    """theta = phi sweep points with the singular-angle substitution applied."""
    return [substitute_singular(float(p)) for p in grid_degrees(start_deg, stop_deg, step_deg)]


def q_surface(theta_deg, phi_deg) -> np.ndarray:
    """Theoretical q on the outer grid of the two angle arrays (degrees).

    Entry [i, j] is q at (theta_deg[i], phi_deg[j]).
    """
    th = np.radians(np.asarray(theta_deg, dtype=np.float64)).reshape(-1, 1)
    ph = np.radians(np.asarray(phi_deg, dtype=np.float64)).reshape(1, -1)
    if th.size == 0 or ph.size == 0:
        raise ValueError("empty grid")
    chi = np.arctan2(1.0, np.tan(th) * np.cos(ph))
    amp = 0.5 * np.cos(th) * np.cos(chi) * (1.0 - np.exp(-2j * ph))
    return np.abs(amp) ** 2


def _sweep_rows(
    thetas_deg, phis_deg, noise: NoiseModel, cfg: ShotConfig | None
) -> list[SweepRow]:
    """Rows for paired angle lists: one engine batch, then per-point estimates.

    Point i samples from the streams (_STREAM_SWEEP, i, experiment, run).
    """
    dists = experiment_distributions(np.radians(thetas_deg), np.radians(phis_deg), noise)
    rows = []
    for i, (theta_deg, phi_deg) in enumerate(zip(thetas_deg, phis_deg)):
        params = HardyParams.from_degrees(theta_deg, phi_deg)
        q = analytic_q(params.theta, params.phi)
        est = epsilons_from_distributions(dists[i], q, cfg, stream_base=(_STREAM_SWEEP, i))
        rows.append(
            SweepRow(
                theta_deg=theta_deg,
                phi_deg=phi_deg,
                q_theory=est.q_theory,
                eps1=est.eps1,
                eps2=est.eps2,
                eps3=est.eps3,
                eps5=est.eps5,
                stat_err=est.stat_err5,
                state_class=classify_state(params),
            )
        )
    return rows


def diagonal_sweep(
    points_deg, noise: NoiseModel, cfg: ShotConfig | None
) -> list[SweepRow]:
    """Full noisy pipeline at theta = phi for each point (degrees).

    cfg=None gives the infinite-shot limit (exact distributions, zero errors).
    """
    points = [float(p) for p in points_deg]
    if not points:
        raise ValueError("no sweep points")
    return _sweep_rows(points, points, noise, cfg)


def surface_sweep(
    theta_deg, phi_deg, noise: NoiseModel, cfg: ShotConfig | None
) -> list[SweepRow]:
    """Full noisy pipeline on the outer grid, row-major over (theta, phi)."""
    thetas = [float(t) for t in theta_deg]
    phis = [float(p) for p in phi_deg]
    if not thetas or not phis:
        raise ValueError("empty grid")
    return _sweep_rows(
        [t for t in thetas for _ in phis], [p for _ in thetas for p in phis], noise, cfg
    )


def baseline_eps4(
    noise: NoiseModel, cfg: ShotConfig | None, points_deg=BASELINE_POINTS_DEG
) -> float:
    """Largest fourth-experiment value over the MES / PS calibration points.

    q is zero at every one of these points, so the measured value is the
    error floor against which NMES runs are compared.
    """
    best = 0.0
    for i, (t, p) in enumerate(points_deg):
        params = HardyParams.from_degrees(t, p)
        est = measure_epsilons(params, noise, cfg, stream_base=(_STREAM_BASELINE, i))
        best = max(best, est.eps5)
    return best


def _diagonal_angle_for_q(target: float) -> float:
    """Diagonal angle (radians) with analytic_q(t, t) = target, by bisection."""
    hi = optimal_angles()[0]
    if not 0.0 < target < analytic_q(hi, hi):
        raise ValueError(f"target q {target} outside the diagonal range")
    lo = 1e-6
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if analytic_q(mid, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def q_ladder(num_refine: int = 2, base_points_deg=NMES_LADDER_POINTS_DEG) -> list[tuple[float, float]]:
    """NMES points ordered by descending q, geometrically refined across gaps.

    Wherever consecutive q levels differ by more than 4x, `num_refine`
    diagonal points are inserted at geometrically interpolated q values.
    """
    points = sorted(
        ((float(t), float(p)) for t, p in base_points_deg),
        key=lambda tp: analytic_q(math.radians(tp[0]), math.radians(tp[1])),
        reverse=True,
    )
    levels: list[float] = []
    for t, p in points:
        q = analytic_q(math.radians(t), math.radians(p))
        if not levels or abs(q - levels[-1]) > 1e-12:
            levels.append(q)
    ladder = list(points)
    for hi, lo in zip(levels, levels[1:]):
        if hi / lo > 4.0 and num_refine > 0:
            for k in range(1, num_refine + 1):
                q_mid = hi * (lo / hi) ** (k / (num_refine + 1))
                angle = math.degrees(_diagonal_angle_for_q(q_mid))
                ladder.append((angle, angle))
    ladder.sort(
        key=lambda tp: analytic_q(math.radians(tp[0]), math.radians(tp[1])),
        reverse=True,
    )
    return ladder


def min_established_q(entries, baseline: float, k_sigma: float) -> float | None:
    """Smallest q in the maximal passing prefix of a descending-q ladder.

    `entries` holds (q_theory, eps5, stat_err) triples; a point passes when
    eps5 - k_sigma * stat_err > baseline.  Returns None when even the largest
    q fails (non-locality not established).
    """
    ordered = sorted(entries, key=lambda e: e[0], reverse=True)
    established: float | None = None
    for q, eps5, err in ordered:
        if eps5 - k_sigma * err > baseline:
            established = q
        else:
            break
    return established


def metric_min_q(
    noise: NoiseModel,
    cfg: ShotConfig | None,
    k_sigma: float = 3.0,
    ladder_deg=None,
    baseline: float | None = None,
) -> float | None:
    """Smallest q for which the pipeline still distinguishes NMES from the floor."""
    if k_sigma <= 0:
        raise ValueError("k_sigma must be positive")
    if baseline is None:
        baseline = baseline_eps4(noise, cfg)
    ladder = q_ladder() if ladder_deg is None else list(ladder_deg)
    entries = []
    for i, (t, p) in enumerate(ladder):
        params = HardyParams.from_degrees(t, p)
        est = measure_epsilons(params, noise, cfg, stream_base=(_STREAM_LADDER, i))
        entries.append((est.q_theory, est.eps5, est.stat_err5))
    return min_established_q(entries, baseline, k_sigma)


def _peak_theta(rows) -> tuple[float, bool]:
    """theta_deg of the largest eps5; ties resolve to the smaller angle."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows")
    best = max(r.eps5 for r in rows)
    candidates = [r.theta_deg for r in rows if r.eps5 == best]
    return min(candidates), len(candidates) > 1


def metric_shift(rows, reference_deg: float = REFERENCE_ANGLE_DEG) -> float:
    """Distance (degrees) of the observed eps5 peak from the theoretical one."""
    rows = list(rows)
    if len(rows) < 3:
        raise ValueError("shift metric needs at least 3 rows")
    peak, tied = _peak_theta(rows)
    if tied:
        warnings.warn("eps5 peak is tied; reporting the smallest angle", stacklevel=2)
    return abs(peak - reference_deg)


def metric_fluctuation(rows) -> tuple[float, float]:
    """(standard deviation, max - min) of estimated eps4 across rows."""
    rows = list(rows)
    if len(rows) < 2:
        raise ValueError("fluctuation metric needs at least 2 rows")
    values = np.array([r.eps4_estimated for r in rows])
    return float(np.std(values)), float(np.max(values) - np.min(values))


def delta_interval(rows, rho_deg: float = REFERENCE_ANGLE_DEG) -> float:
    """Smallest delta with the eps5 peak inside [rho - delta, rho + delta].

    A peak sitting on the swept boundary is flagged with a warning: the true
    peak may lie outside and delta is then only the bound the range allows.
    """
    rows = list(rows)
    thetas = [r.theta_deg for r in rows]
    if not (min(thetas) <= rho_deg <= max(thetas)):
        raise ValueError("swept rows do not cover the reference angle")
    peak, tied = _peak_theta(rows)
    if tied:
        warnings.warn("eps5 peak is tied; reporting the smallest angle", stacklevel=2)
    if peak in (min(thetas), max(thetas)):
        warnings.warn(
            "eps5 peak sits on the swept boundary; delta is only a lower bound",
            stacklevel=2,
        )
    return abs(peak - rho_deg)


def performance_report(
    rows,
    baseline: float | None = None,
    k_sigma: float = 3.0,
    rho_deg: float = REFERENCE_ANGLE_DEG,
) -> tuple[PerformanceReport, float]:
    """All three measures from finished sweep rows; returns (report, baseline).

    The baseline defaults to the largest eps5 over the MES / PS rows present
    in the sweep itself.
    """
    if k_sigma <= 0:
        raise ValueError("k_sigma must be positive")
    rows = list(rows)
    if baseline is None:
        floor_rows = [r.eps5 for r in rows if r.state_class.kind is not StateKind.NMES]
        baseline = max(floor_rows) if floor_rows else 0.0
    nmes = [
        (r.q_theory, r.eps5, r.stat_err)
        for r in rows
        if r.state_class.kind is StateKind.NMES
    ]
    min_q = min_established_q(nmes, baseline, k_sigma) if nmes else None
    std, spread = metric_fluctuation(rows)
    report = PerformanceReport(
        min_distinguishable_q=min_q,
        shift_deg=metric_shift(rows, reference_deg=rho_deg),
        delta_interval_deg=delta_interval(rows, rho_deg=rho_deg),
        eps4_fluctuation_std=std,
        eps4_fluctuation_range=spread,
    )
    return report, baseline


def _reduced_steps(variant: str) -> tuple[HardyParams, list]:
    """Few-gate preparation plus the fourth-experiment measurement gates.

    ps_00 (theta = phi = 0): one Hadamard makes (|0>+|1>)|0>/sqrt2; the phase
    gates of the measurement are identities at phi = 0 and are dropped.
    ps_01 (theta = 90, phi = 0): Hadamard plus a bit flip make
    (|0>+|1>)|1>/sqrt2; Bob's rotation degenerates to the identity (chi -> 0)
    and is dropped as well.
    """
    half_pi = math.pi / 2.0
    if variant == "ps_00":
        params = HardyParams.from_degrees(0.0, 0.0)
        steps = [
            (1, gates.hadamard()),
            (1, gates.u3(half_pi, 0.0, 0.0)),
            (0, gates.u3(2.0 * params.chi, 0.0, 0.0)),
        ]
    elif variant == "ps_01":
        params = HardyParams.from_degrees(90.0, 0.0)
        steps = [
            (1, gates.hadamard()),
            (0, gates.pauli_x()),
            (1, gates.u3(half_pi, 0.0, 0.0)),
        ]
    else:
        raise ValueError(f"unknown variant {variant!r}; expected ps_00 or ps_01")
    return params, steps


def reduced_circuit_compare(
    variant: str, noise: NoiseModel, cfg: ShotConfig | None = None
) -> ReducedComparison:
    """Fourth-experiment error of the full pipeline vs the reduced preparation.

    Both circuits target the same product state and the same measurement; the
    flagged outcome (+1, +1) has probability zero ideally, so any excess is
    circuit error.  cfg=None compares exact distributions.
    """
    params, reduced = _reduced_steps(variant)
    full = experiment_steps(2, 2, params.theta, params.lam, params.chi)
    dists = [readout_distributions(evolve(ground_state(), steps, noise), noise)
             for steps in (full, reduced)]
    if cfg is None:
        full_eps, reduced_eps = (float(d[0]) for d in dists)
    else:
        pooled = []
        for i, dist in enumerate(dists):
            counts = sample_shots(dist, cfg, stream=(_STREAM_REDUCED, i))
            pooled.append(float(counts[:, 0].sum()) / float(counts.sum()))
        full_eps, reduced_eps = pooled
    return ReducedComparison(
        variant=variant,
        full_eps=full_eps,
        reduced_eps=reduced_eps,
        full_gate_count=len(full),
        reduced_gate_count=len(reduced),
    )


def _format_value(value: float) -> str:
    return format(float(value), ".9g")


def rows_to_csv(rows) -> str:
    """Render sweep rows as the fixed-header CSV (LF endings)."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    _format_value(r.theta_deg),
                    _format_value(r.phi_deg),
                    _format_value(r.q_theory),
                    _format_value(r.eps1),
                    _format_value(r.eps2),
                    _format_value(r.eps3),
                    _format_value(r.eps5),
                    _format_value(r.eps4_estimated),
                    _format_value(r.stat_err),
                    r.state_class.kind.value,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_csv(rows, path) -> None:
    Path(path).write_bytes(rows_to_csv(rows).encode("utf-8"))


def read_csv(path) -> list[SweepRow]:
    """Parse a sweep CSV back into rows.

    Every numeric field must be finite, and q_theory and eps1..eps5 must lie
    in [0, 1].  The eps4_est column is redundant (eps5 - q_theory); it is
    checked for consistency and the exact difference is used.  Class is taken
    from the file; concurrence is recomputed from the angles.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SweepCsvError(0, f"cannot read {path}: {exc}") from exc
    reader = csv.reader(text.splitlines())
    rows: list[SweepRow] = []
    header_fields = CSV_HEADER.split(",")
    for lineno, record in enumerate(reader, start=1):
        if lineno == 1:
            if record != header_fields:
                raise SweepCsvError(1, f"bad header {record!r}")
            continue
        if not record:
            continue
        if len(record) != len(header_fields):
            raise SweepCsvError(lineno, f"expected {len(header_fields)} fields, got {len(record)}")
        try:
            values = [float(v) for v in record[:9]]
        except ValueError as exc:
            raise SweepCsvError(lineno, f"non-numeric field ({exc})") from exc
        if not all(map(math.isfinite, values)):
            name = next(n for n, v in zip(header_fields, values) if not math.isfinite(v))
            raise SweepCsvError(lineno, f"non-finite {name}")
        theta, phi, q, e1, e2, e3, e5, e4_est, err = values
        probabilities = (q, e1, e2, e3, e5)
        if min(probabilities) < 0.0 or max(probabilities) > 1.0:
            name, value = next((n, v) for n, v in zip(_PROBABILITY_FIELDS, probabilities)
                               if not 0.0 <= v <= 1.0)
            raise SweepCsvError(lineno, f"{name}={value!r} outside [0, 1]")
        try:
            kind = StateKind(record[9])
        except ValueError as exc:
            raise SweepCsvError(lineno, f"unknown class {record[9]!r}") from exc
        if abs(e4_est - (e5 - q)) > 1e-6:
            raise SweepCsvError(lineno, "eps4_est is not eps5 - q_theory")
        rows.append(
            SweepRow(
                theta_deg=theta,
                phi_deg=phi,
                q_theory=q,
                eps1=e1,
                eps2=e2,
                eps3=e3,
                eps5=e5,
                stat_err=err,
                state_class=StateClass(
                    kind, concurrence(math.radians(theta), math.radians(phi))
                ),
            )
        )
    if not rows:
        raise SweepCsvError(1, "no data rows")
    return rows
