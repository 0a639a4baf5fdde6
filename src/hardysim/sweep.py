"""Parameter sweeps, performance measures, and the reduced-gate comparison.

Every sweep takes one path, sweep_angles then measure_points (one engine and
one estimate batch), and is one SweepTable, a column per quantity and a row
per grid point.  A surface reaches the engine as a theta column times a phi
row, so each gate is built once per angle it depends on; measure_points
flattens the result once.  sweep_angles is the one grid builder: it checks
the range and the size and moves theta off the tan singularity by one array
rule, substitute_singular, that probe_report applies to its one angle.  Rows
stay in sweep order (no internal sorting) so plotted curves match the swept
axis directly.  The CSV interface is fixed:

    theta_deg,phi_deg,q_theory,eps1,eps2,eps3,eps5,eps4_est,stat_err,class

one row per grid point, decimal points, at least six significant digits.
write_csv emits unquoted rows with LF endings.  read_csv parses every valid
file in one call of numpy's C tokenizer (np.loadtxt) over the whole file
and transposes the values once into one contiguous copy: the row checks
(one mask per rule) run on it, and the table's columns are views into it.
A file it cannot trust to that call, or one the call or the row checks
reject, goes to _diagnose: one bisection over the lines, each tokenized on
its own and checked, raises at the earliest bad line.  It accepts CRLF or
CR endings, double-quoted fields and blank lines.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import gates
from .engine import cnot_free_distributions, experiment_steps, flagged_probabilities
from .hardy import CLASSES, analytic_q, chi_of, classify, concurrence
from .noise import NoiseModel, ShotConfig, estimate_batch

CSV_HEADER = "theta_deg,phi_deg,q_theory,eps1,eps2,eps3,eps5,eps4_est,stat_err,class"
_HEADER_FIELDS = CSV_HEADER.split(",")
_CSV_ROW = "%.9g," * 9 + "%s\n"  # the nine numeric fields, then the class
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

# Peak memory of a sweep per grid point, in bytes, a conservative bound: from
# a 0.002- to a 0.0005-degree sampled default-noise diagonal (45,000 to 180,000
# points) the peak RSS grows from 71.7 to 193.3 MiB, about 950 bytes per point;
# the 0.25-degree sampled surface peaks at 143 MiB.  A grid needing more than
# the physical memory at this rate is rejected before it is built.
ENGINE_BYTES_PER_POINT = 1700

# Memory of the draws per run, in bytes, rounded down as ENGINE_BYTES_PER_POINT
# is: estimate_batch's per-draw int64 n and float64 p, the int64 counts and
# experiment 4's float64 frequencies.  tracemalloc's peak of estimate_batch at
# one point grows by 33.1 to 33.6 bytes per run from 10**5 to 10**6 runs
# (numpy 2.4.6).  measure_points refuses a batch whose points x runs need more
# than the physical memory at this rate before the engine runs; a sweep pools
# its runs into one (see cli._cmd_sweep), so only probe's runs can bind.
SAMPLE_BYTES_PER_RUN = 32

# How many statistical errors a measured epsilon must clear above the error
# floor to pass (`metrics --k-sigma`).
DEFAULT_K_SIGMA = 3.0

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


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def substitute_singular(theta_deg) -> np.ndarray:
    """theta_deg (degrees, an array or a number) with each angle on the tan
    singularity (within 1e-9 of 90, 270, ...) moved 0.01 down.

    The test is exact: IEEE's remainder r modulo 180 is fmod's f, less 180
    with f's sign where |f| > 90, and an angle is singular when |r| > 90 - 1e-9.
    """
    theta_deg = np.asarray(theta_deg, dtype=np.float64)
    f = np.fmod(theta_deg, 180.0)
    r = np.where(np.abs(f) > 90.0, f - np.copysign(180.0, f), f)
    return np.where(np.abs(r) > 90.0 - 1e-9, theta_deg - 0.01, theta_deg)


def sweep_angles(
    mode: str, start_deg: float, stop_deg: float, step_deg: float
) -> tuple[np.ndarray, np.ndarray]:
    """(theta_deg, phi_deg) of a `diagonal` or `surface` sweep of the inclusive
    grid start_deg, start_deg + step_deg, ..., stop_deg, never beyond stop_deg.

    Whole steps that fit (within 1e-9 of a step) come first; when the last of
    them falls short of stop_deg, stop_deg itself is appended.  theta is the
    grid through substitute_singular, less each substitute not above the
    theta before it.  A diagonal pairs theta with itself; a surface is theta as
    a column (T, 1) and the grid as a phi row (1, P).  A grid numpy cannot
    index (or an infinite one) is rejected before it is built, as is one whose
    points (the grid's length, squared for a surface) would need more than
    the physical memory at ENGINE_BYTES_PER_POINT; one numpy cannot allocate
    is rejected when the allocation fails.
    """
    if mode not in ("diagonal", "surface"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    if step_deg <= 0:
        raise ValueError("step must be positive")
    if stop_deg < start_deg:
        raise ValueError("stop must be >= start")
    span = (stop_deg - start_deg) / step_deg + 1e-9
    if not span < np.iinfo(np.intp).max:
        raise ValueError(f"step {step_deg:g} gives too many points ({span:.3g})")
    count = math.floor(span)
    short = start_deg + step_deg * count < stop_deg - 1e-9
    points = (count + 1 + short) ** (1 if mode == "diagonal" else 2)
    memory = _physical_memory()
    if memory is not None and points * ENGINE_BYTES_PER_POINT > memory:
        raise ValueError(f"step {step_deg:g} gives too many points ({points:.3g})")
    try:
        grid = start_deg + step_deg * np.arange(count + 1, dtype=np.float64)
        if short:
            grid = np.append(grid, stop_deg)
        theta = substitute_singular(grid)
        earlier = np.maximum.accumulate(np.append(-np.inf, theta[:-1]))
        theta = theta[(theta == grid) | (theta > earlier)]
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"step {step_deg:g} gives too many points ({points:.3g})") from exc
    return (theta, theta) if mode == "diagonal" else (theta[:, None], grid[None, :])


def _radians(degrees) -> np.ndarray:
    """degrees reduced exactly modulo 360, in radians."""
    return np.radians(np.fmod(degrees, 360.0))


def measure_points(
    theta_deg, phi_deg, noise: NoiseModel, cfg: ShotConfig | None
) -> tuple[SweepTable, np.ndarray, np.ndarray]:
    """One engine batch, each point's four flagged probabilities, and one
    estimate batch for angle arrays that broadcast (degrees, reduced exactly
    modulo 360 and converted here to the radians of `engine` and `hardy`).
    The engine runs on the arrays as given; row i of the table is point i of
    the broadcast shape in row-major (theta-major) order.

    Returns (table, stat_err, eps5_per_run): the table, then the statistical
    errors of all four columns of table.eps and the fourth experiment's
    per-run frequencies, as estimate_batch gives them.  Point i's counts
    depend only on cfg (`--shots`, `--runs`, `--seed`), i and its own four
    flagged probabilities, not on the other points or on how the draws are
    batched.  A sampled batch whose points x runs would need more than the
    physical memory at SAMPLE_BYTES_PER_RUN raises MemoryError before the
    engine runs.
    """
    theta_deg, phi_deg = (np.asarray(a, dtype=np.float64) for a in (theta_deg, phi_deg))
    shape = np.broadcast_shapes(theta_deg.shape, phi_deg.shape)
    if 0 in shape:
        raise ValueError("no sweep points")
    memory = _physical_memory()
    if cfg and memory is not None and math.prod(shape) * cfg.runs * SAMPLE_BYTES_PER_RUN > memory:
        raise MemoryError(f"draws of {cfg.runs} runs at {math.prod(shape)} points")
    theta, phi = _radians(theta_deg), _radians(phi_deg)
    flagged = flagged_probabilities(theta, phi, noise).reshape(-1, 4)
    eps, stat_err, eps5_per_run = estimate_batch(flagged, cfg)
    columns = theta_deg, phi_deg, analytic_q(theta, phi), classify(theta, phi)
    theta_deg, phi_deg, q, kind = (np.broadcast_to(x, shape).ravel() for x in columns)
    table = SweepTable(theta_deg, phi_deg, q, eps, stat_err[:, 3], kind)
    return table, stat_err, eps5_per_run


def ladder_verdict(
    q, eps5, stat_err, baseline: float, k_sigma: float
) -> tuple[int, int, float | None, float | None]:
    """(passed, length, stop_q, min_q) of the descending-q ladder.

    The ladder takes the points by descending q, ties in their given order.
    A point passes when eps5 - k_sigma * stat_err > baseline; the ladder
    stops at the first point that does not.  That point is the failing one
    with the largest q, the earliest of them among ties, so no sort is
    needed: the passing prefix is every point of larger q plus the points
    of equal q before it.  q must be finite.  The first `passed` of the
    `length` rungs pass; stop_q is the q of the first failing rung and min_q
    that of the last passing one (None when there is no such rung).
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
    return int(rungs.size), int(q.size), stop_q, min_q


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
    k_sigma: float = DEFAULT_K_SIGMA,
    rho_deg: float = REFERENCE_ANGLE_DEG,
) -> dict:
    """The three performance measures of a finished sweep and the decisions behind them.

    The keys are the `metrics` output lines, in their order.  baseline_eps4
    is the error floor and baseline_source says where it came from: "flag"
    (given), "rows" (the largest eps5 over the floor_rows MES / PS rows) or
    "none".  min_distinguishable_q and the ladder_* keys are the NMES rows'
    ladder_verdict; free_passes counts the NMES rows whose
    eps4_est - k_sigma * stat_err alone exceeds the floor.  Without a floor
    these five are None.  shift_deg is |peak - rho| (see peak_offset), also
    delta_interval_deg, the half-width of the smallest [rho - delta,
    rho + delta] holding the peak.  zero_condition_max is the largest of
    eps1..eps3, the worst residual of the three zero conditions.
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
    passed = length = stop_q = min_q = free_passes = None
    if baseline is not None:
        q, eps5, stat_err = table.q[nmes], table.eps5[nmes], table.stat_err[nmes]
        passed, length, stop_q, min_q = ladder_verdict(q, eps5, stat_err, baseline, k_sigma)
        free_passes = int(np.count_nonzero(table.eps4_est[nmes] - k_sigma * stat_err > baseline))
    return {
        "baseline_eps4": baseline,
        "baseline_source": source,
        "k_sigma": k_sigma,
        "rho_deg": rho_deg,
        "min_distinguishable_q": min_q,
        "shift_deg": offset,
        "delta_interval_deg": offset,
        "peak_tied": tied,
        "peak_on_boundary": on_boundary,
        "eps4_fluctuation_std": std,
        "eps4_fluctuation_range": spread,
        "zero_condition_max": float(table.eps[:, :3].max()),
        **{f"rows_{kind.lower()}": int(np.count_nonzero(table.kind == kind))
           for kind in ("PS", "MES", "NMES")},
        "floor_rows": floor_rows,
        "ladder_passed": passed,
        "ladder_length": length,
        "ladder_stop_q": stop_q,
        "free_passes": free_passes,
        "exact_input": not table.stat_err.any(),
    }


def probe_report(
    theta_deg: float, phi_deg: float, noise: NoiseModel, cfg: ShotConfig | None
) -> tuple[SweepTable, dict]:
    """(table, report) of one point: its one-row table, and the `probe` output lines,
    in their order, as keys.  theta_deg alone goes through substitute_singular (phi =
    90 is a regular point); report["theta_deg"] is the angle measured."""
    theta_deg = float(substitute_singular(theta_deg))
    table, stat_err, eps5_per_run = measure_points([theta_deg], [phi_deg], noise, cfg)
    report = {"theta_deg": theta_deg, "phi_deg": phi_deg, "class": str(table.kind[0]),
              "concurrence": float(concurrence(*_radians([theta_deg, phi_deg]))),
              "q_theory": float(table.q[0])}
    for n, eps, err in zip((1, 2, 3, 5), table.eps[0].tolist(), stat_err[0].tolist()):
        report[f"eps{n}"], report[f"stat_err{n}"] = eps, err
    report.update(eps5_run_std=float(np.std(eps5_per_run)), eps4_est=float(table.eps4_est[0]),
                  noise_profile=noise.name or "unnamed")
    return table, report


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


def reduced_circuit_compare(variant: str, noise: NoiseModel) -> dict:
    """Exact fourth-experiment error of the full pipeline vs the reduced preparation.

    Both circuits target the same product state and the same measurement; the
    flagged outcome (+1, +1) has probability zero ideally, so any excess is
    circuit error.  full_eps is the exact eps5 of the full circuit as
    measure_points (and so `probe`) gives it; the keys are the `reduced`
    output lines, in their order.
    """
    theta, phi, reduced = _reduced_steps(variant)
    full = measure_points([math.degrees(theta)], [math.degrees(phi)], noise, None)[0]
    reduced_eps = cnot_free_distributions(reduced, noise)[0]
    return {
        "variant": variant,
        "full_eps": float(full.eps5[0]),
        "reduced_eps": float(reduced_eps),
        "full_gate_count": len(experiment_steps(2, 2, theta, phi, chi_of(theta, phi))),
        "reduced_gate_count": len(reduced),
    }


def rows_to_csv(table: SweepTable) -> str:
    """Render a sweep table as the fixed-header CSV (LF endings)."""
    columns = (
        table.theta_deg, table.phi_deg, table.q, *table.eps.T, table.eps4_est, table.stat_err
    )
    # "%.9g" renders a float as format(v, ".9g") does, one format call per row.
    rows = zip(*(column.tolist() for column in columns), table.kind.tolist())
    return CSV_HEADER + "\n" + "".join(map(_CSV_ROW.__mod__, rows))


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
    reported at its earliest bad line.  The values are checked in one
    contiguous (9, N) copy, and each float column of the table is a
    contiguous view into it.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise SweepCsvError(0, f"cannot read {path}: {exc}") from exc
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
    columns = rows["values"].T.copy()  # checked, then viewed as the table's columns
    if _check_rows(columns, rows["kind"]) is not None:
        _diagnose(path)
    kind = rows["kind"].astype(_CLASS_NAMES.dtype)
    return SweepTable(columns[0], columns[1], columns[2], columns[3:7].T, columns[8], kind)


def _diagnose(path) -> NoReturn:
    """Raise SweepCsvError at the earliest bad line of a file read_csv rejects.

    Past the header, one search (_first_bad) over one rule (_parse) finds the
    earliest bad data line, and _fault says why it is bad.
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


def _parse(lines: list[str]) -> str | None:
    """None when none of these non-empty lines is bad, else a reason.

    A line is bad when it does not tokenize on its own (reason "") or when its
    row fails _check_rows (that message, for the first failing row).  It does
    not tokenize when its fields are not ten, one of its first nine is not a
    number, or a quoted field is still open at its end: the valid sentinel
    row appended last is then swallowed into the quoted field, so the row
    count comes out short, or the row it ends fails to parse.
    """
    try:
        rows = _loadtxt([*lines, _SENTINEL], _LINE_DTYPE)
    except ValueError:
        return ""
    if len(rows) != len(lines) + 1:
        return ""
    fault = _check_rows(rows["values"].T, rows["kind"])
    return None if fault is None else fault[1]


def _first_bad(lines: list[str]) -> int:
    """Index of the first bad line (see _parse), by bisection; len(lines) if none.

    Whether a line is bad does not depend on the lines around it (a good line
    closes its quotes, and the row checks look at one row at a time), so a
    part is rejected exactly when it holds a bad line.
    """
    lo, hi = 0, len(lines)  # lines[:lo] are good; a bad line, if any, is in lines[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parse(lines[lo:mid]) is None:
            lo = mid
        else:
            hi = mid
    return len(lines) if _parse(lines[lo:hi]) is None else lo


def _fault(line: str) -> str:
    """Why _parse rejects this one line: its row's check, or what stops its tokenizing."""
    if reason := _parse([line]):
        return reason
    fields = _fields(line)
    if len(fields) != len(_HEADER_FIELDS):
        return f"expected {len(_HEADER_FIELDS)} fields, got {len(fields)}"
    for column, field in enumerate(fields[:9]):
        try:
            _loadtxt([line], np.float64, usecols=column)
        except ValueError:
            return f"non-numeric field (could not convert string to float: {field!r})"
    return "quoted field not closed on its line"


def _check_rows(columns, kinds) -> tuple[int, str] | None:
    """(row index, message) of the earliest row failing a check, or None.

    columns holds the nine numeric fields as rows, shape (9, N).  Each rule
    is one mask over all rows: finite, probabilities in [0, 1], known class,
    eps4_est consistent.  The first failing row's message comes from the
    first rule whose mask fails there, and within a rule from its first
    failing column.
    """
    finite = np.isfinite(columns)
    in_range = (columns[2:7] >= 0.0) & (columns[2:7] <= 1.0)
    known = np.isin(kinds, _CLASS_NAMES)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN: consistent here, caught by finite
        consistent = ~(np.abs(columns[7] - (columns[6] - columns[2])) > 1e-6)
    good = finite.all(0) & in_range.all(0) & known & consistent
    if good.all():
        return None
    row = int(np.argmin(good))
    if not finite[:, row].all():
        return row, f"non-finite {_HEADER_FIELDS[int(np.argmin(finite[:, row]))]}"
    if not in_range[:, row].all():
        column = int(np.argmin(in_range[:, row]))
        value = float(columns[2 + column, row])
        return row, f"{_PROBABILITY_FIELDS[column]}={value!r} outside [0, 1]"
    if not known[row]:
        return row, f"unknown class {kinds[row]!r}"
    return row, "eps4_est is not eps5 - q_theory"
