"""Command-line front end: probe, sweep, metrics, reduced, validate.

Angles are degrees at this boundary only (radians everywhere inside); a
radians flag is deliberately omitted to avoid dual-unit bugs.  Exit codes:
0 success, 1 usage error, 2 I/O or input-file error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .hardy import concurrence
from .noise import (
    DEFAULT_SHOTS_PER_RUN,
    NoiseModel,
    ProfileError,
    ShotConfig,
    load_noise_profile,
)
from .selftest import run_validation_suites
from .sweep import (
    REFERENCE_ANGLE_DEG,
    SweepCsvError,
    diagonal_points,
    diagonal_sweep,
    grid_degrees,
    measure_points,
    performance_report,
    read_csv,
    reduced_circuit_compare,
    substitute_singular,
    surface_sweep,
    write_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3

# ShotConfig's error messages name its fields; the CLI reports the flags.
_FLAG_OF_FIELD = {"shots_per_run": "--shots", "runs": "--runs", "seed": "--seed"}


class UsageError(Exception):
    def __init__(self, message: str, usage: str | None = None):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; contract says 1
        raise UsageError(message, usage=self.format_usage())


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hardysim",
        description="Two-qubit Hardy nonlocality test: simulation, noisy emulation, metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_noise_flag(p):
        p.add_argument("--noise", default="none", metavar="PROFILE",
                       help="noise profile file, or 'none' / 'default'")

    def add_shot_flags(p):
        add_noise_flag(p)
        p.add_argument("--shots", type=int, default=8192, metavar="N",
                       help="shots per run; 0 = exact distributions, no sampling")
        p.add_argument("--runs", type=int, default=10, metavar="R")
        p.add_argument("--seed", type=int, default=0, metavar="S")

    probe = sub.add_parser("probe", help="single-point epsilons and classification")
    probe.add_argument("theta_deg", type=float)
    probe.add_argument("phi_deg", type=float)
    add_shot_flags(probe)
    probe.add_argument("--out", metavar="FILE", help="also write a one-row sweep CSV")

    sweep = sub.add_parser("sweep", help="diagonal or surface parameter sweep to CSV")
    sweep.add_argument("mode", choices=("diagonal", "surface"))
    sweep.add_argument("--from", dest="start_deg", type=float, default=0.0, metavar="DEG")
    sweep.add_argument("--to", dest="stop_deg", type=float, default=90.0, metavar="DEG")
    sweep.add_argument("--step", type=float, default=5.0, metavar="DEG")
    add_shot_flags(sweep)
    sweep.add_argument("--out", required=True, metavar="FILE")

    metrics = sub.add_parser("metrics", help="performance measures from a sweep CSV")
    metrics.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    metrics.add_argument("--k-sigma", type=float, default=3.0)
    metrics.add_argument("--baseline", type=float, default=None,
                         help="error floor; default: largest eps5 on MES/PS rows")
    metrics.add_argument("--rho", type=float, default=REFERENCE_ANGLE_DEG,
                         help="reference angle (deg) for shift and interval")

    reduced = sub.add_parser(
        "reduced", help="exact error of the full circuit vs a few-gate preparation"
    )
    reduced.add_argument("variant", choices=("ps_00", "ps_01"))
    add_noise_flag(reduced)

    sub.add_parser("validate", help="run the built-in invariant suites")
    return parser


def _resolve_noise(spec: str) -> NoiseModel:
    if spec == "none":
        return NoiseModel.none()
    if spec == "default":
        return NoiseModel.default_profile()
    return load_noise_profile(spec)


def _resolve_shots(args) -> ShotConfig | None:
    """The shot plan, or None for --shots 0 (exact); --runs and --seed are checked either way."""
    if args.shots < 0:
        raise UsageError("--shots must be >= 0")
    try:
        cfg = ShotConfig(
            shots_per_run=args.shots or DEFAULT_SHOTS_PER_RUN, runs=args.runs, seed=args.seed
        )
    except ValueError as exc:
        words = (_FLAG_OF_FIELD.get(word, word) for word in str(exc).split(" "))
        raise UsageError(" ".join(words)) from exc
    return cfg if args.shots else None


def _print_kv(out, key, value):
    if isinstance(value, float):
        value = format(value, ".9g")
    print(f"{key}={value}", file=out)


def _require_finite(**angles) -> None:
    for name, value in angles.items():
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value}")


def _cmd_probe(args, out) -> int:
    _require_finite(theta_deg=args.theta_deg, phi_deg=args.phi_deg)
    # Only theta hits the tan singularity; phi = 90 is a regular point.
    theta = substitute_singular(args.theta_deg)
    phi = args.phi_deg
    if theta != args.theta_deg:
        print(
            f"# note: singular theta substituted: {args.theta_deg:g} -> {theta:g}",
            file=out,
        )
    noise = _resolve_noise(args.noise)
    cfg = _resolve_shots(args)
    table, stat_err, eps5_per_run = measure_points([theta], [phi], noise, cfg)
    eps, stat_err, q = table.eps[0].tolist(), stat_err[0].tolist(), float(table.q[0])
    _print_kv(out, "theta_deg", theta)
    _print_kv(out, "phi_deg", phi)
    _print_kv(out, "class", table.kind[0])
    _print_kv(out, "concurrence", float(concurrence(math.radians(theta), math.radians(phi))))
    _print_kv(out, "q_theory", q)
    for i in range(3):
        _print_kv(out, f"eps{i + 1}", eps[i])
        _print_kv(out, f"stat_err{i + 1}", stat_err[i])
    _print_kv(out, "eps5", eps[3])
    _print_kv(out, "stat_err5", stat_err[3])
    _print_kv(out, "eps5_run_std", float(np.std(eps5_per_run)))
    _print_kv(out, "eps4_est", eps[3] - q)
    _print_kv(out, "noise_profile", noise.name or "unnamed")
    if args.out:
        write_csv(table, args.out)
    return EXIT_OK


def _cmd_sweep(args, out) -> int:
    _require_finite(start=args.start_deg, stop=args.stop_deg, step=args.step)
    noise = _resolve_noise(args.noise)
    cfg = _resolve_shots(args)
    if args.step <= 0:
        raise UsageError("--step must be positive")
    if args.stop_deg < args.start_deg:
        raise UsageError("--to must be >= --from")
    if args.mode == "diagonal":
        points = diagonal_points(args.start_deg, args.stop_deg, args.step)
        table = diagonal_sweep(points, noise, cfg)
    else:
        phis = [float(p) for p in grid_degrees(args.start_deg, args.stop_deg, args.step)]
        thetas = [substitute_singular(p) for p in phis]
        table = surface_sweep(thetas, phis, noise, cfg)
    write_csv(table, args.out)
    print(f"wrote {len(table)} rows to {args.out}", file=out)
    return EXIT_OK


def _cmd_metrics(args, out) -> int:
    _require_finite(k_sigma=args.k_sigma, rho=args.rho)
    if args.baseline is not None:
        _require_finite(baseline=args.baseline)
        if not 0.0 <= args.baseline <= 1.0:
            raise UsageError(f"--baseline must be in [0, 1], got {args.baseline:g}")
    if args.k_sigma <= 0:
        raise UsageError(f"--k-sigma must be positive, got {args.k_sigma:g}")
    table = read_csv(args.in_path)
    try:
        report = performance_report(
            table, baseline=args.baseline, k_sigma=args.k_sigma, rho_deg=args.rho
        )
    except ValueError as exc:  # usable CSV but unusable sweep (too few rows, no coverage)
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    if report.baseline_source == "none":
        print("note: no MES/PS rows and no --baseline; min q is not established",
              file=sys.stderr)
    print(f"performance measures from {args.in_path} ({len(table)} rows)", file=out)
    _print_kv(out, "baseline_eps4", "none" if report.baseline is None else report.baseline)
    _print_kv(out, "baseline_source", report.baseline_source)
    _print_kv(out, "k_sigma", args.k_sigma)
    _print_kv(out, "rho_deg", args.rho)
    ladder = report.ladder
    min_q = None if ladder is None else ladder.min_q
    _print_kv(out, "min_distinguishable_q", "not_established" if min_q is None else min_q)
    # delta, the half-width of the smallest [rho - delta, rho + delta] holding
    # the peak, is the shift by definition: both keys print the one offset.
    _print_kv(out, "shift_deg", report.peak_offset_deg)
    _print_kv(out, "delta_interval_deg", report.peak_offset_deg)
    _print_kv(out, "peak_tied", str(report.peak_tied).lower())
    _print_kv(out, "peak_on_boundary", str(report.peak_on_boundary).lower())
    _print_kv(out, "eps4_fluctuation_std", report.eps4_fluctuation_std)
    _print_kv(out, "eps4_fluctuation_range", report.eps4_fluctuation_range)
    _print_kv(out, "zero_condition_max", report.zero_condition_max)
    # the decisions behind min q: which rows the floor rests on, how far the
    # ladder got, and how many rungs pass on eps4 alone.  Without a floor
    # there is no ladder, and its keys print none.
    for kind in ("PS", "MES", "NMES"):
        _print_kv(out, f"rows_{kind.lower()}", int(np.count_nonzero(table.kind == kind)))
    _print_kv(out, "floor_rows", report.floor_rows)
    _print_kv(out, "ladder_passed", "none" if ladder is None else ladder.passed)
    _print_kv(out, "ladder_length", "none" if ladder is None else ladder.length)
    stop_q = None if ladder is None else ladder.stop_q
    _print_kv(out, "ladder_stop_q", "none" if stop_q is None else stop_q)
    _print_kv(out, "free_passes", "none" if report.free_passes is None else report.free_passes)
    _print_kv(out, "exact_input", str(not table.stat_err.any()).lower())
    return EXIT_OK


def _cmd_reduced(args, out) -> int:
    comparison = reduced_circuit_compare(args.variant, _resolve_noise(args.noise))
    for key, value in dataclasses.asdict(comparison).items():
        _print_kv(out, key, value)
    return EXIT_OK


def _cmd_validate(args, out) -> int:
    results = run_validation_suites()
    failed = 0
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        print(f"{status} {name}: {detail}", file=out)
        failed += 0 if passed else 1
    print(f"{len(results) - failed}/{len(results)} suites passed", file=out)
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "probe":
            return _cmd_probe(args, out)
        if args.command == "sweep":
            return _cmd_sweep(args, out)
        if args.command == "metrics":
            return _cmd_metrics(args, out)
        if args.command == "reduced":
            return _cmd_reduced(args, out)
        return _cmd_validate(args, out)
    except UsageError as exc:
        if exc.usage:
            print(exc.usage, end="", file=sys.stderr)
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ProfileError, SweepCsvError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
