"""The four benchmark workloads: CLI arguments, generated inputs, output checks.

Every check returns a list of problems; an empty list means the output is
correct.  The checks recompute what they compare against on their own (the
`metrics` values, the closed form of q) or compare against references stored
in `ref/`, which `make_refs.py` produces from the program.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "ref"

CSV_HEADER = "theta_deg,phi_deg,q_theory,eps1,eps2,eps3,eps5,eps4_est,stat_err,class"
NUMERIC_COLUMNS = CSV_HEADER.split(",")[:9]

SHOTS = 8192
RUNS = 10

# 19 x 19 = 361 points at 5 degrees; 361 diagonal points at 0.25 degrees.
SURFACE_ARGS = ("sweep", "surface", "--from", "0", "--to", "90", "--step", "5",
                "--noise", "default", "--shots", "0")
DIAGONAL_ARGS = ("sweep", "diagonal", "--from", "0", "--to", "90", "--step", "0.25",
                 "--noise", "default", "--shots", str(SHOTS), "--runs", str(RUNS))
SURFACE_REF = REF_DIR / "surface_exact.csv"
DIAGONAL_REF = REF_DIR / "diagonal_exact.csv"

SURFACE_TOL = 1e-9
SAMPLED_SIGMAS = 6.0
BAD_CELLS_SHOWN = 3  # problems listed per kind of mismatch

METRICS_ROWS = 100_000
METRICS_FLOOR_SHARE = 0.02
K_SIGMA = 3.0
RHO_DEG = 51.827
VALIDATE_SUITES = 7


@dataclass
class Outcome:
    """What one successful CLI run left behind: printed text, output file."""

    text: str
    out_bytes: bytes | None


@dataclass
class Workload:
    """CLI arguments plus a check returning (points processed, problems)."""

    name: str
    argv: list[str]
    check: Callable[[Outcome], tuple[int, list[str]]]
    out_path: Path | None = None


# ---------------------------------------------------------------- CSV parsing

def parse_sweep_csv(text: str) -> tuple[np.ndarray, list[str]]:
    """(rows x 9 float array, class column) of a sweep CSV; raises ValueError."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad header {lines[:1]!r}")
    values, classes = [], []
    for lineno, record in enumerate(csv.reader(lines[1:]), start=2):
        if len(record) != 10:
            raise ValueError(f"line {lineno}: {len(record)} fields")
        values.append([float(v) for v in record[:9]])
        classes.append(record[9])
    return np.array(values, dtype=np.float64).reshape(-1, 9), classes


def _column(values: np.ndarray, name: str) -> np.ndarray:
    return values[:, NUMERIC_COLUMNS.index(name)]


def _bad_cells(what: str, rows: np.ndarray) -> list[str]:
    return [f"{what} at row {int(i) + 1}" for i in rows[:BAD_CELLS_SHOWN]]


def _common_sweep_checks(outcome: Outcome, ref_path: Path):
    """Parse output and reference; check shape, angles, q and classes."""
    out, out_cls = parse_sweep_csv((outcome.out_bytes or b"").decode("utf-8", "replace"))
    ref, ref_cls = parse_sweep_csv(ref_path.read_text(encoding="utf-8"))
    if out.shape != ref.shape:
        return out, ref, [f"{out.shape[0]} rows, reference has {ref.shape[0]}"]
    problems = []
    for name in ("theta_deg", "phi_deg", "q_theory"):
        diff = np.abs(_column(out, name) - _column(ref, name))
        problems += _bad_cells(f"{name} off by more than {SURFACE_TOL:g}",
                               np.flatnonzero(~(diff <= SURFACE_TOL)))
    problems += _bad_cells("class differs",
                           np.flatnonzero(np.array(out_cls) != np.array(ref_cls)))
    e4 = _column(out, "eps5") - _column(out, "q_theory")
    problems += _bad_cells("eps4_est is not eps5 - q_theory",
                           np.flatnonzero(~(np.abs(_column(out, "eps4_est") - e4) <= 1e-8)))
    return out, ref, problems


# ---------------------------------------------------------------- surface_exact

def check_surface(outcome: Outcome) -> tuple[int, list[str]]:
    """Every cell within SURFACE_TOL of the stored full-precision reference."""
    try:
        out, ref, problems = _common_sweep_checks(outcome, SURFACE_REF)
    except ValueError as exc:
        return 0, [f"unreadable output CSV: {exc}"]
    if out.shape == ref.shape:
        diff = np.abs(out - ref)
        bad_rows = np.flatnonzero(~np.all(diff <= SURFACE_TOL, axis=1))
        problems += _bad_cells(f"cell off by more than {SURFACE_TOL:g}", bad_rows)
    return out.shape[0], problems


# ---------------------------------------------------------------- diagonal_sampled

def check_diagonal(outcome: Outcome) -> tuple[int, list[str]]:
    """Sampled epsilons within SAMPLED_SIGMAS of the exact noisy reference.

    sigma comes from the reference probability and the total shot count, so
    the check holds for any stream layout that samples the right distribution.
    """
    try:
        out, ref, problems = _common_sweep_checks(outcome, DIAGONAL_REF)
    except ValueError as exc:
        return 0, [f"unreadable output CSV: {exc}"]
    if out.shape != ref.shape:
        return out.shape[0], problems
    total_shots = SHOTS * RUNS
    for name in ("eps1", "eps2", "eps3", "eps5"):
        p = _column(ref, name)
        sigma = np.sqrt(p * (1.0 - p) / total_shots)
        dev = np.abs(_column(out, name) - p)
        problems += _bad_cells(f"{name} beyond {SAMPLED_SIGMAS:g} sigma",
                               np.flatnonzero(~(dev <= SAMPLED_SIGMAS * sigma)))
    eps5 = _column(out, "eps5")
    err = np.sqrt(eps5 * (1.0 - eps5) / total_shots)
    problems += _bad_cells("stat_err is not the counting error of eps5",
                           np.flatnonzero(~(np.abs(_column(out, "stat_err") - err)
                                            <= 1e-8 * np.maximum(err, 1e-12) + 1e-15)))
    return out.shape[0], problems


# ---------------------------------------------------------------- metrics_large

def q_closed_form(theta_deg: np.ndarray, phi_deg: np.ndarray) -> np.ndarray:
    """q = |cos(theta) cos(chi) (1 - e^{-2i phi}) / 2|^2, cot(chi) = tan(theta) cos(phi)."""
    th = np.radians(theta_deg)
    ph = np.radians(phi_deg)
    chi = np.arctan2(1.0, np.tan(th) * np.cos(ph))
    return np.abs(0.5 * np.cos(th) * np.cos(chi) * (1.0 - np.exp(-2j * ph))) ** 2


def state_classes(theta_deg: np.ndarray, phi_deg: np.ndarray) -> np.ndarray:
    """PS / MES / NMES by concurrence |sin(2 theta) sin(phi)|."""
    c = np.abs(np.sin(2.0 * np.radians(theta_deg)) * np.sin(np.radians(phi_deg)))
    return np.where(c < 1e-9, "PS", np.where(c > 1.0 - 1e-9, "MES", "NMES"))


def generate_metrics_csv(seed: int, path: Path) -> None:
    """Seeded sweep CSV: NMES rows across the q range plus MES/PS floor rows.

    eps4 (the error floor) is drawn around 3 %, eps5 = q + eps4, and stat_err
    is the counting error of eps5 at SHOTS x RUNS, so the min-q ladder stops
    somewhere inside the q range and every measure has work to do.
    """
    rng = np.random.default_rng(seed)
    n_floor = int(METRICS_ROWS * METRICS_FLOOR_SHARE)
    n_nmes = METRICS_ROWS - n_floor - 1
    floor_theta = rng.uniform(0.0, 89.0, n_floor)
    floor_phi = rng.uniform(0.0, 90.0, n_floor)
    kind = np.arange(n_floor) % 3  # phi = 0 (PS), theta = 0 (PS), (45, 90) (MES)
    floor_phi[kind == 0] = 0.0
    floor_theta[kind == 1] = 0.0
    floor_theta[kind == 2], floor_phi[kind == 2] = 45.0, 90.0
    theta = np.concatenate([rng.uniform(1.0, 89.0, n_nmes), [RHO_DEG], floor_theta])
    phi = np.concatenate([rng.uniform(1.0, 89.0, n_nmes), [RHO_DEG], floor_phi])
    order = rng.permutation(theta.size)
    theta, phi = np.round(theta[order], 6), np.round(phi[order], 6)

    q = q_closed_form(theta, phi)
    eps123 = np.clip(rng.normal(0.02, 0.003, (3, theta.size)), 1e-4, None)
    eps4 = np.clip(rng.normal(0.03, 0.002, theta.size), 1e-4, None)
    eps5 = q + eps4
    stat_err = np.sqrt(eps5 * (1.0 - eps5) / (SHOTS * RUNS))
    classes = state_classes(theta, phi)

    columns = [theta, phi, q, eps123[0], eps123[1], eps123[2], eps5, eps5 - q, stat_err]
    cells = [[format(v, ".9g") for v in col.tolist()] for col in columns]
    lines = [CSV_HEADER]
    lines += [",".join(fields) for fields in zip(*cells, classes.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def expected_metrics(text: str) -> dict[str, object]:
    """The `metrics` key=value results for a sweep CSV, computed independently.

    Baseline: largest eps5 over MES/PS rows.  Min q: walk NMES rows by
    descending q (file order among ties) while eps5 - K_SIGMA * stat_err
    exceeds the baseline.  Shift and delta: distance of the eps5 peak (the
    smallest theta among ties) from RHO_DEG.  Fluctuation: std and range of
    eps5 - q over all rows.
    """
    values, classes = parse_sweep_csv(text)
    cls = np.array(classes)
    theta, q = _column(values, "theta_deg"), _column(values, "q_theory")
    eps5, err = _column(values, "eps5"), _column(values, "stat_err")
    floor = eps5[cls != "NMES"]
    baseline = float(floor.max()) if floor.size else 0.0
    nmes = np.flatnonzero(cls == "NMES")
    ladder = nmes[np.argsort(-q[nmes], kind="stable")]
    passed = eps5[ladder] - K_SIGMA * err[ladder] > baseline
    stop = int(np.argmin(passed)) if not passed.all() else passed.size
    min_q = float(q[ladder[stop - 1]]) if stop > 0 else "not_established"
    peak = float(theta[eps5 == eps5.max()].min())
    e4 = eps5 - q
    return {
        "rows": values.shape[0],
        "baseline_eps4": baseline,
        "k_sigma": K_SIGMA,
        "rho_deg": RHO_DEG,
        "min_distinguishable_q": min_q,
        "shift_deg": abs(peak - RHO_DEG),
        "delta_interval_deg": abs(peak - RHO_DEG),
        "eps4_fluctuation_std": float(np.std(e4)),
        "eps4_fluctuation_range": float(e4.max() - e4.min()),
    }


def check_metrics_text(text: str, expected: dict[str, object]) -> list[str]:
    """Each expected key=value line present and equal to printing precision."""
    printed = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            printed[key.strip()] = value.strip()
    if f"({expected['rows']} rows)" not in text:
        return [f"row count {expected['rows']} not reported"]
    problems = []
    for key, want in expected.items():
        if key == "rows":
            continue
        got = printed.get(key)
        if got is None:
            problems.append(f"missing {key}")
        elif isinstance(want, str):
            if got != want:
                problems.append(f"{key}={got}, expected {want}")
        else:
            try:
                ok = math.isclose(float(got), want, rel_tol=1e-8, abs_tol=1e-12)
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"{key}={got}, expected {want:.9g}")
    return problems


# ---------------------------------------------------------------- validate

def check_validate(outcome: Outcome) -> tuple[int, list[str]]:
    line = f"{VALIDATE_SUITES}/{VALIDATE_SUITES} suites passed"
    if line not in outcome.text.splitlines():
        return 0, [f"no '{line}' line"]
    return VALIDATE_SUITES, []


# ---------------------------------------------------------------- assembly

NAMES = ("surface_exact", "diagonal_sampled", "metrics_large", "validate")


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Build the workload's inputs (untimed) and return how to run and check it."""
    out_path = workdir / "out.csv"
    if name == "surface_exact":
        return Workload(name, [*SURFACE_ARGS, "--out", str(out_path)], check_surface, out_path)
    if name == "diagonal_sampled":
        argv = [*DIAGONAL_ARGS, "--seed", str(seed), "--out", str(out_path)]
        return Workload(name, argv, check_diagonal, out_path)
    if name == "metrics_large":
        in_path = workdir / "metrics_in.csv"
        generate_metrics_csv(seed, in_path)
        expected = expected_metrics(in_path.read_text(encoding="utf-8"))

        def check(outcome: Outcome) -> tuple[int, list[str]]:
            return expected["rows"], check_metrics_text(outcome.text, expected)

        return Workload(name, ["metrics", "--in", str(in_path)], check)
    if name == "validate":
        return Workload(name, ["validate"], check_validate)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
