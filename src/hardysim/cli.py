"""Command-line front end: probe, sweep, metrics, validate.

Angles are degrees at this boundary only (radians everywhere inside); a
radians flag is deliberately omitted to avoid dual-unit bugs.  Exit codes:
0 success, 1 usage error, 2 I/O or input-file error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from .hardy import HardyParams, classify_state
from .noise import (
    NoiseModel,
    ProfileError,
    ShotConfig,
    load_noise_profile,
    measure_epsilons,
)
from .selftest import run_validation_suites
from .sweep import (
    CSV_HEADER,
    REFERENCE_ANGLE_DEG,
    SweepCsvError,
    SweepRow,
    diagonal_points,
    diagonal_sweep,
    grid_degrees,
    performance_report,
    read_csv,
    substitute_singular,
    surface_sweep,
    write_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3


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

    def add_shot_flags(p):
        p.add_argument("--noise", default="none", metavar="PROFILE",
                       help="noise profile file, or 'none' / 'default'")
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

    sub.add_parser("validate", help="run the built-in invariant suites")
    return parser


def _resolve_noise(spec: str) -> NoiseModel:
    if spec == "none":
        return NoiseModel.none()
    if spec == "default":
        return NoiseModel.default_profile()
    return load_noise_profile(spec)


def _resolve_shots(args) -> ShotConfig | None:
    if args.shots == 0:
        return None
    if args.shots < 0:
        raise UsageError("--shots must be >= 0")
    if args.runs < 1:
        raise UsageError("--runs must be >= 1")
    return ShotConfig(shots_per_run=args.shots, runs=args.runs, seed=args.seed)


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
    params = HardyParams.from_degrees(theta, phi)
    cls = classify_state(params)
    est = measure_epsilons(params, noise, cfg)
    _print_kv(out, "theta_deg", theta)
    _print_kv(out, "phi_deg", phi)
    _print_kv(out, "class", cls.kind.value)
    _print_kv(out, "concurrence", cls.concurrence)
    _print_kv(out, "q_theory", est.q_theory)
    for i, (eps, err) in enumerate(
        [(est.eps1, est.stat_err1), (est.eps2, est.stat_err2), (est.eps3, est.stat_err3)],
        start=1,
    ):
        _print_kv(out, f"eps{i}", eps)
        _print_kv(out, f"stat_err{i}", err)
    _print_kv(out, "eps5", est.eps5)
    _print_kv(out, "stat_err5", est.stat_err5)
    _print_kv(out, "eps5_run_std", est.eps5_run_std)
    _print_kv(out, "eps4_est", est.eps4_estimated)
    _print_kv(out, "noise_profile", noise.name or "unnamed")
    if args.out:
        row = SweepRow(
            theta_deg=theta,
            phi_deg=phi,
            q_theory=est.q_theory,
            eps1=est.eps1,
            eps2=est.eps2,
            eps3=est.eps3,
            eps5=est.eps5,
            stat_err=est.stat_err5,
            state_class=cls,
        )
        write_csv([row], args.out)
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
        rows = diagonal_sweep(points, noise, cfg)
    else:
        phis = [float(p) for p in grid_degrees(args.start_deg, args.stop_deg, args.step)]
        thetas = [substitute_singular(p) for p in phis]
        rows = surface_sweep(thetas, phis, noise, cfg)
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}", file=out)
    return EXIT_OK


def _cmd_metrics(args, out) -> int:
    _require_finite(k_sigma=args.k_sigma, rho=args.rho)
    if args.baseline is not None:
        _require_finite(baseline=args.baseline)
    if args.k_sigma <= 0:
        raise UsageError(f"--k-sigma must be positive, got {args.k_sigma:g}")
    rows = read_csv(args.in_path)
    try:
        report, baseline = performance_report(
            rows, baseline=args.baseline, k_sigma=args.k_sigma, rho_deg=args.rho
        )
    except ValueError as exc:  # usable CSV but unusable sweep (too few rows, no coverage)
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"performance measures from {args.in_path} ({len(rows)} rows)", file=out)
    _print_kv(out, "baseline_eps4", baseline)
    _print_kv(out, "k_sigma", args.k_sigma)
    _print_kv(out, "rho_deg", args.rho)
    if report.min_distinguishable_q is None:
        _print_kv(out, "min_distinguishable_q", "not_established")
    else:
        _print_kv(out, "min_distinguishable_q", report.min_distinguishable_q)
    _print_kv(out, "shift_deg", report.shift_deg)
    _print_kv(out, "delta_interval_deg", report.delta_interval_deg)
    _print_kv(out, "eps4_fluctuation_std", report.eps4_fluctuation_std)
    _print_kv(out, "eps4_fluctuation_range", report.eps4_fluctuation_range)
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
