"""Parameter sweeps, performance measures, and the reduced-gate comparison.

A sweep is one SweepTable, a column per quantity and a row per grid point.
Rows stay in sweep order (no internal sorting) so plotted curves match the
swept axis directly.  The CSV interface is fixed:

    theta_deg,phi_deg,q_theory,eps1,eps2,eps3,eps5,eps4_est,stat_err,class

one row per grid point, decimal points, at least six significant digits.
write_csv emits unquoted rows with LF endings.  read_csv parses every valid
file in one call of numpy's C tokenizer (np.loadtxt) over the whole file.
A file it cannot trust to that call, or one the call or the row checks
reject, goes to _diagnose, which tokenizes each line on its own and raises
at the earliest bad line.  It accepts CRLF or CR endings, double-quoted
fields and blank lines.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import gates
from .engine import (
    evolve,
    experiment_distributions,
    experiment_steps,
    ground_state,
    readout_distributions,
)
from .hardy import CLASSES, analytic_q, chi_of, classify
from .noise import NoiseModel, ShotConfig, estimate_batch

CSV_HEADER = "theta_deg,phi_deg,q_theory,eps1,eps2,eps3,eps5,eps4_est,stat_err,class"
_HEADER_FIELDS = CSV_HEADER.split(",")
_PROBABILITY_FIELDS = ("q_theory", "eps1", "eps2", "eps3", "eps5")
# The class field is one character longer than the longest class name, so
# a longer field cut to fit never equals a class name.
_ROW_DTYPE = np.dtype([("values", np.float64, (9,)), ("kind", "U5")])
# _diagnose keeps each class field whole.
_LINE_DTYPE = np.dtype([("values", np.float64, (9,)), ("kind", object)])
# The first line, its line end, and a non-blank line after it.
_FIRST_LINE = re.compile(rb"([^\r\n]*)[\r\n]+[^\r\n]")
_CLASS_NAMES = np.array(CLASSES)
_SENTINEL = "0,0,0,0,0,0,0,0,0,PS"  # a valid row; see _parse

# Reference angle (degrees) for the peak measure: the diagonal parameter
# maximizing q, quoted at the customary 51.827.
REFERENCE_ANGLE_DEG = 51.827

class SweepCsvError(ValueError):
    """Malformed sweep CSV; carries the offending 1-based line number.

    Line 0 means the file itself was unusable (no line to point at).
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


@dataclass(frozen=True, eq=False)
class SweepTable:
    """One sweep as columns of equal length N; row i is grid point i.

    Angles are in degrees and q is the theoretical q.  eps has shape (N, 4)
    with columns eps1, eps2, eps3, eps5; stat_err is the statistical error
    of eps5; kind holds each point's class name ("PS", "MES" or "NMES").
    """

    theta_deg: np.ndarray
    phi_deg: np.ndarray
    q: np.ndarray
    eps: np.ndarray
    stat_err: np.ndarray
    kind: np.ndarray

    def __len__(self) -> int:
        return len(self.theta_deg)

    @property
    def eps5(self) -> np.ndarray:
        return self.eps[:, 3]

    @property
    def eps4_est(self) -> np.ndarray:
        """The estimate eps5 - q of eps4, which is not measurable on its own."""
        return self.eps5 - self.q


@dataclass(frozen=True)
class LadderVerdict:
    """Outcome of the descending-q ladder (see ladder_verdict).

    The first `passed` of its `length` rungs pass; stop_q is the q of the
    first failing rung (None when every rung passes) and min_q the q of the
    last passing one (None when none passes).
    """

    passed: int
    length: int
    stop_q: float | None
    min_q: float | None


@dataclass(frozen=True)
class PerformanceReport:
    """The three performance measures of one sweep and the decisions behind them.

    baseline_source says where the error floor came from: "flag" (given by
    the caller), "rows" (largest eps5 over the MES / PS rows) or "none"
    (neither; baseline, ladder and free_passes are then None).
    floor_rows counts the rows the floor was taken from (0 unless "rows").
    ladder is the NMES rows' min-q ladder; its min_q is the smallest
    distinguishable q.  free_passes counts the NMES rows whose
    eps4_est - k_sigma * stat_err alone exceeds the floor, which pass
    whatever their q.  peak_offset_deg is |peak - rho|, which is both the
    shift of the eps5 peak and the half-width delta of the smallest interval
    [rho - delta, rho + delta] holding it.  zero_condition_max is the
    largest of eps1..eps3 over all rows, the worst residual of the three
    zero conditions.
    """

    baseline: float | None
    baseline_source: str
    floor_rows: int
    ladder: LadderVerdict | None
    free_passes: int | None
    peak_offset_deg: float
    peak_tied: bool
    peak_on_boundary: bool
    eps4_fluctuation_std: float
    eps4_fluctuation_range: float
    zero_condition_max: float


@dataclass(frozen=True)
class ReducedComparison:
    """Error of the full pipeline vs the few-gate preparation, same measurement."""

    variant: str
    full_eps: float
    reduced_eps: float
    full_gate_count: int
    reduced_gate_count: int


def grid_degrees(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive degree grid start, start+step, ..., stop; never beyond stop.

    Whole steps that fit (within 1e-9 of a step) come first; when the last
    of them falls short of stop, stop itself is appended.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError("stop must be >= start")
    count = math.floor((stop - start) / step + 1e-9)
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


def measure_points(
    theta_deg, phi_deg, noise: NoiseModel, cfg: ShotConfig | None
) -> tuple[SweepTable, np.ndarray, np.ndarray]:
    """One engine batch and one estimate batch for paired angle arrays (degrees).

    Returns (table, stat_err, eps5_per_run): the table, then the statistical
    errors of all four columns of table.eps and the fourth experiment's
    per-run frequencies, as estimate_batch gives them.  One generator per
    call (so one per command), seeded by cfg.seed (`--seed`), draws all
    flagged counts in sweep order.
    """
    theta_deg = np.asarray(theta_deg, dtype=np.float64)
    phi_deg = np.asarray(phi_deg, dtype=np.float64)
    theta, phi = np.radians(theta_deg), np.radians(phi_deg)
    dists = experiment_distributions(theta, phi, noise)
    eps, stat_err, eps5_per_run = estimate_batch(dists, cfg)
    table = SweepTable(
        theta_deg, phi_deg, analytic_q(theta, phi), eps, stat_err[:, 3], classify(theta, phi)
    )
    return table, stat_err, eps5_per_run


def diagonal_sweep(points_deg, noise: NoiseModel, cfg: ShotConfig | None) -> SweepTable:
    """Full noisy pipeline at theta = phi for each point (degrees).

    cfg=None gives the infinite-shot limit (exact distributions, zero errors).
    """
    points = np.asarray(points_deg, dtype=np.float64)
    if not points.size:
        raise ValueError("no sweep points")
    return measure_points(points, points, noise, cfg)[0]


def surface_sweep(theta_deg, phi_deg, noise: NoiseModel, cfg: ShotConfig | None) -> SweepTable:
    """Full noisy pipeline on the outer grid, row-major over (theta, phi)."""
    thetas = np.asarray(theta_deg, dtype=np.float64)
    phis = np.asarray(phi_deg, dtype=np.float64)
    if not thetas.size or not phis.size:
        raise ValueError("empty grid")
    return measure_points(np.repeat(thetas, phis.size), np.tile(phis, thetas.size), noise, cfg)[0]


def ladder_verdict(q, eps5, stat_err, baseline: float, k_sigma: float) -> LadderVerdict:
    """The descending-q ladder: points by descending q, ties in their given order.

    A point passes when eps5 - k_sigma * stat_err > baseline; the ladder
    stops at the first point that does not.  That point is the failing one
    with the largest q, the earliest of them among ties, so no sort is
    needed: the passing prefix is every point of larger q plus the points
    of equal q before it.  q must be finite.
    """
    q, eps5, stat_err = (np.asarray(a, dtype=np.float64) for a in (q, eps5, stat_err))
    failing = ~(eps5 - k_sigma * stat_err > baseline)
    stop_q = None
    passing = ~failing
    if failing.any():
        stop = int(np.argmax(np.where(failing, q, -np.inf)))  # first index of the largest
        stop_q = float(q[stop])
        level = q == q[stop]
        level[stop:] = False
        passing = (q > q[stop]) | level
    rungs = q[passing][::-1]
    # the last passing rung: the smallest q, the latest among ties
    min_q = float(rungs[np.argmin(rungs)]) if rungs.size else None
    return LadderVerdict(int(rungs.size), int(q.size), stop_q, min_q)


def peak_offset(
    table: SweepTable, rho_deg: float = REFERENCE_ANGLE_DEG
) -> tuple[float, bool, bool]:
    """(|peak - rho|, tied, on_boundary) for the theta_deg of the largest eps5.

    Ties resolve to the smaller angle and set `tied`.  `on_boundary` marks a
    peak on the smallest or largest swept theta: the true peak may then lie
    outside the sweep and the offset is only the bound the range allows.
    """
    if len(table) < 3:
        raise ValueError("peak measure needs at least 3 rows")
    theta = table.theta_deg
    lo, hi = float(theta.min()), float(theta.max())
    if not lo <= rho_deg <= hi:
        raise ValueError("swept rows do not cover the reference angle")
    candidates = theta[table.eps5 == table.eps5.max()]
    peak = float(candidates.min())
    return abs(peak - rho_deg), candidates.size > 1, peak in (lo, hi)


def metric_fluctuation(table: SweepTable) -> tuple[float, float]:
    """(standard deviation, max - min) of estimated eps4 across rows."""
    if len(table) < 2:
        raise ValueError("fluctuation metric needs at least 2 rows")
    values = table.eps4_est
    return float(np.std(values)), float(np.max(values) - np.min(values))


def performance_report(
    table: SweepTable,
    baseline: float | None = None,
    k_sigma: float = 3.0,
    rho_deg: float = REFERENCE_ANGLE_DEG,
) -> PerformanceReport:
    """All three measures from a finished sweep.

    The baseline defaults to the largest eps5 over the MES / PS rows present
    in the sweep itself; with no such rows and none given, min q is not
    established.
    """
    if k_sigma <= 0:
        raise ValueError("k_sigma must be positive")
    if baseline is not None and not 0.0 <= baseline <= 1.0:
        raise ValueError(f"baseline must be in [0, 1], got {baseline}")
    std, spread = metric_fluctuation(table)
    offset, tied, on_boundary = peak_offset(table, rho_deg)
    nmes = table.kind == "NMES"
    source, floor_rows = "flag", 0
    if baseline is None:
        floor = table.eps5[~nmes]
        source, floor_rows = ("rows", floor.size) if floor.size else ("none", 0)
        baseline = float(floor.max()) if floor.size else None
    ladder = free_passes = None
    if baseline is not None:
        q, eps5, stat_err = table.q[nmes], table.eps5[nmes], table.stat_err[nmes]
        ladder = ladder_verdict(q, eps5, stat_err, baseline, k_sigma)
        free_passes = int(np.count_nonzero(eps5 - q - k_sigma * stat_err > baseline))
    return PerformanceReport(
        baseline=baseline,
        baseline_source=source,
        floor_rows=floor_rows,
        ladder=ladder,
        free_passes=free_passes,
        peak_offset_deg=offset,
        peak_tied=tied,
        peak_on_boundary=on_boundary,
        eps4_fluctuation_std=std,
        eps4_fluctuation_range=spread,
        zero_condition_max=float(table.eps[:, :3].max()),
    )


def _reduced_steps(variant: str) -> tuple[float, float, list]:
    """(theta, phi, steps): few-gate preparation plus the fourth-experiment measurement gates.

    ps_00 (theta = phi = 0): one Hadamard makes (|0>+|1>)|0>/sqrt2; the phase
    gates of the measurement are identities at phi = 0 and are dropped.
    ps_01 (theta = 90, phi = 0): Hadamard plus a bit flip make
    (|0>+|1>)|1>/sqrt2; Bob's rotation degenerates to the identity (chi -> 0)
    and is dropped as well.
    """
    half_pi = math.pi / 2.0
    if variant == "ps_00":
        theta, phi = 0.0, 0.0
        steps = [
            (1, gates.hadamard()),
            (1, gates.u3(half_pi, 0.0, 0.0)),
            (0, gates.u3(2.0 * chi_of(theta, phi), 0.0, 0.0)),
        ]
    elif variant == "ps_01":
        theta, phi = math.radians(90.0), 0.0
        steps = [
            (1, gates.hadamard()),
            (0, gates.pauli_x()),
            (1, gates.u3(half_pi, 0.0, 0.0)),
        ]
    else:
        raise ValueError(f"unknown variant {variant!r}; expected ps_00 or ps_01")
    return theta, phi, steps


def reduced_circuit_compare(variant: str, noise: NoiseModel) -> ReducedComparison:
    """Exact fourth-experiment error of the full pipeline vs the reduced preparation.

    Both circuits target the same product state and the same measurement; the
    flagged outcome (+1, +1) has probability zero ideally, so any excess is
    circuit error.
    """
    theta, phi, reduced = _reduced_steps(variant)
    full = experiment_steps(2, 2, theta, phi, chi_of(theta, phi))
    full_eps, reduced_eps = (
        float(readout_distributions(evolve(ground_state(), steps, noise), noise)[0])
        for steps in (full, reduced)
    )
    return ReducedComparison(
        variant=variant,
        full_eps=full_eps,
        reduced_eps=reduced_eps,
        full_gate_count=len(full),
        reduced_gate_count=len(reduced),
    )


def rows_to_csv(table: SweepTable) -> str:
    """Render a sweep table as the fixed-header CSV (LF endings)."""
    columns = (
        table.theta_deg, table.phi_deg, table.q, *table.eps.T, table.eps4_est, table.stat_err
    )
    cells = [[format(v, ".9g") for v in column.tolist()] for column in columns]
    lines = [CSV_HEADER, *map(",".join, zip(*cells, table.kind.tolist()))]
    return "\n".join(lines) + "\n"


def write_csv(table: SweepTable, path) -> None:
    Path(path).write_bytes(rows_to_csv(table).encode("utf-8"))


def read_csv(path) -> SweepTable:
    """Parse a sweep CSV back into a table.

    Lines end in LF, CRLF or CR.  Fields are separated by commas and may be
    enclosed in double quotes; a quoted field ends on its own line.  Blank
    lines are skipped but counted in line numbers; there are no comment
    lines.  Numbers use numpy's float syntax (no digit separators).  Every
    numeric field must be finite, and q_theory and eps1..eps5 must lie in
    [0, 1].  The eps4_est column is redundant (eps5 - q_theory); it is
    checked for consistency and the exact difference is used.  A bad file is
    reported at its earliest bad line.

    The rows come from one tokenizer call over the whole file.  A file that
    call cannot be trusted with, or whose rows it or _check_rows rejects, goes
    to _diagnose, which raises at the earliest bad line.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError:
        _diagnose(path)
    # The call needs a data line after the header (it warns on no data).  A
    # NUL byte is bad in any field, but the U5 class field would drop it.  A
    # good line holds an even number of quotes (a quoted field opens and
    # closes, and no number or class holds a quote), so a line with an odd
    # number is bad, and the call could join it to the next line; a line
    # left open with an even number holds a quote in another field, which
    # the call rejects.
    start = _FIRST_LINE.match(raw)
    if (
        start is None
        or _fields(start[1].decode("utf-8", "replace")) != _HEADER_FIELDS
        or b"\0" in raw
        or (b'"' in raw and any(line.count(b'"') % 2 for line in raw.splitlines()))
    ):
        _diagnose(path)
    del raw, start  # free the bytes before the call builds the rows
    try:
        with open(path, encoding="utf-8") as handle:
            rows = _loadtxt(handle, _ROW_DTYPE, skiprows=1)
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
        _diagnose(path)
    if _check_rows(rows["values"], rows["kind"]) is not None:
        _diagnose(path)
    data = rows["values"]
    return SweepTable(
        theta_deg=data[:, 0],
        phi_deg=data[:, 1],
        q=data[:, 2],
        eps=data[:, 3:7],
        stat_err=data[:, 8],
        kind=rows["kind"].astype(_CLASS_NAMES.dtype),
    )


def _diagnose(path) -> NoReturn:
    """Raise SweepCsvError at the earliest bad line of a file read_csv rejects.

    Each non-empty line is tokenized on its own (_parse), so a quote cannot
    join two lines and a NUL byte stays in its field.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise SweepCsvError(0, f"cannot read {path}: {exc}") from exc
    if lines != [""]:
        if (header := _fields(lines[0])) != _HEADER_FIELDS:
            raise SweepCsvError(1, f"bad header {header!r}")
        if lines[0].count('"') % 2:  # a header field left open
            raise SweepCsvError(1, "quoted field not closed on its line")
    # the data lines that are parsed, and their 1-based line numbers
    numbered = [(number, line) for number, line in enumerate(lines[1:], 2) if line]
    records = [line for _, line in numbered]
    bad = _first_bad(records)
    rows = _parse(records[:bad])
    if (fault := _check_rows(rows["values"], rows["kind"])) is not None:
        row, message = fault
        raise SweepCsvError(numbered[row][0], message)
    if bad < len(records):
        raise SweepCsvError(numbered[bad][0], _fault(records[bad]))
    raise SweepCsvError(1, "no data rows")


def _loadtxt(lines, dtype, **kwargs) -> np.ndarray:
    """numpy's C tokenizer over lines (a list or an open text file), sweep CSV syntax."""
    return np.loadtxt(
        lines, delimiter=",", dtype=dtype, comments=None, quotechar='"', ndmin=1, **kwargs
    )


def _fields(line: str) -> list[str]:
    """The fields of one line, unquoted."""
    return _loadtxt([line], object).tolist() if line else []


def _parse(lines: list[str]) -> np.ndarray | None:
    """Rows of non-empty lines as a _LINE_DTYPE array, or None if any line is bad.

    A line is bad when it does not hold ten fields, when one of its first nine
    fields is not a number, or when a quoted field is still open at its end.
    The valid sentinel row appended last finds the open quote: it is swallowed
    into the quoted field, so the row count comes out short, or the row it
    ends fails to parse.
    """
    try:
        rows = _loadtxt([*lines, _SENTINEL], _LINE_DTYPE)
    except ValueError:
        return None
    return rows[:-1] if len(rows) == len(lines) + 1 else None


def _first_bad(lines: list[str]) -> int:
    """Index of the first line _parse rejects, by bisection; len(lines) if none.

    Whether a line is bad does not depend on the lines around it (a good line
    closes its quotes), so a part is rejected exactly when it holds a bad line.
    """
    lo, hi = 0, len(lines)  # lines[:lo] are good; a bad line, if any, is in lines[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parse(lines[lo:mid]) is None:
            hi = mid
        else:
            lo = mid
    return len(lines) if _parse(lines[lo:hi]) is not None else lo


def _fault(line: str) -> str:
    """Why _parse rejects this one line."""
    fields = _fields(line)
    if len(fields) != len(_HEADER_FIELDS):
        return f"expected {len(_HEADER_FIELDS)} fields, got {len(fields)}"
    for column, field in enumerate(fields[:9]):
        try:
            _loadtxt([line], np.float64, usecols=column)
        except ValueError:
            return f"non-numeric field (could not convert string to float: {field!r})"
    return "quoted field not closed on its line"


def _check_rows(data, kinds) -> tuple[int, str] | None:
    """(row index, message) of the earliest parsed row failing a check, or None.

    Within a row the checks apply in order: finite, probabilities in [0, 1],
    known class, eps4_est consistent.  All rows are screened one column at a
    time, on a transposed contiguous copy of the values (a probability in
    [0, 1] is finite); only the first failing row is diagnosed.
    """
    columns = data.T.copy()
    known = np.isin(kinds, _CLASS_NAMES)
    good = known & ~(np.abs(columns[7] - (columns[6] - columns[2])) > 1e-6)
    for column in (0, 1, 7, 8):
        good &= np.isfinite(columns[column])
    for column in range(2, 7):
        good &= columns[column] >= 0.0
        good &= columns[column] <= 1.0
    if good.all():
        return None
    row = int(np.argmin(good))
    finite = np.isfinite(data[row])
    if not finite.all():
        return row, f"non-finite {_HEADER_FIELDS[int(np.argmin(finite))]}"
    probabilities = data[row, 2:7]
    in_range = (probabilities >= 0.0) & (probabilities <= 1.0)
    if not in_range.all():
        column = int(np.argmin(in_range))
        value = float(probabilities[column])
        return row, f"{_PROBABILITY_FIELDS[column]}={value!r} outside [0, 1]"
    if not known[row]:
        return row, f"unknown class {kinds[row]!r}"
    return row, "eps4_est is not eps5 - q_theory"
