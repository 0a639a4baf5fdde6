"""Command-line front end: probe, sweep, metrics, reduced, validate; each
parses its arguments and prints what the library returns.

Angles are degrees; `sweep` alone reduces them exactly modulo 360 and
converts them to radians.  A radians flag is deliberately omitted to avoid
dual-unit bugs.  Exit codes: 0 success, 1 usage error, 2 I/O or input-file
error, 3 validation failure.
"""

from __future__ import annotations

import math
import re
import sys
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .noise import (
    DEFAULT_SHOTS_PER_RUN,
    NoiseModel,
    ProfileError,
    ShotConfig,
    load_noise_profile,
)
from .selftest import run_validation_suites
from .sweep import (
    DEFAULT_K_SIGMA,
    REFERENCE_ANGLE_DEG,
    SweepCsvError,
    measure_points,
    performance_report,
    probe_report,
    read_csv,
    reduced_circuit_compare,
    sweep_angles,
    write_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3

# ShotConfig's and sweep_angles's messages name their fields; the CLI reports flags.
_FLAG_OF_FIELD = {"shots_per_run": "--shots", "runs": "--runs", "seed": "--seed",
                  "start": "--from", "stop": "--to", "step": "--step"}


class UsageError(Exception):
    def __init__(self, message: str, usage: str | None = None):
        super().__init__(message)
        self.usage = usage


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
        raise _flag_error(exc) from exc
    return cfg if args.shots else None


def _flag_error(exc: ValueError) -> UsageError:
    """exc's message as a usage error, each field name replaced by its flag."""
    return UsageError(" ".join(_FLAG_OF_FIELD.get(word, word) for word in str(exc).split(" ")))


def _print_kv(out, key, value):
    if value is None or isinstance(value, bool):
        value = str(value).lower()
    elif isinstance(value, float):
        value = format(value, ".9g")
    print(f"{key}={value}", file=out)


def _require_finite(**angles) -> None:
    for name, value in angles.items():
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value}")


def _cmd_probe(args, out) -> int:
    _require_finite(theta_deg=args.theta_deg, phi_deg=args.phi_deg)
    noise = _resolve_noise(args.noise)
    cfg = _resolve_shots(args)
    try:
        table, report = probe_report(args.theta_deg, args.phi_deg, noise, cfg)
    except MemoryError as exc:
        raise UsageError(f"--runs {args.runs} gives too many draws ({args.runs:.3g})") from exc
    if args.out:  # before anything is printed, so a failed write prints nothing
        write_csv(table, args.out)
    theta = report["theta_deg"]
    if theta != args.theta_deg:
        print(f"# note: singular theta substituted: {args.theta_deg:g} -> {theta:g}", file=out)
    for key, value in report.items():
        _print_kv(out, key, value)
    return EXIT_OK


def _cmd_sweep(args, out) -> int:
    _require_finite(start=args.start_deg, stop=args.stop_deg, step=args.step)
    noise = _resolve_noise(args.noise)
    cfg = _resolve_shots(args)
    if cfg:  # only pooled counts are read: R Binomial(S, p) counts sum to one Binomial(S R, p)
        cfg = ShotConfig(cfg.shots_per_run * cfg.runs, 1, cfg.seed)
    try:
        angles = sweep_angles(args.mode, args.start_deg, args.stop_deg, args.step)
    except ValueError as exc:
        raise _flag_error(exc) from exc
    try:  # write_csv renders the whole CSV before it opens the file
        table = measure_points(*angles, noise, cfg)[0]
        write_csv(table, args.out)
    except MemoryError as exc:
        points = np.broadcast(*angles).size
        raise UsageError(f"--step {args.step:g} gives too many points ({points:.3g})") from exc
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
    try:
        table = read_csv(args.in_path)
    except MemoryError as exc:
        raise SweepCsvError(0, f"cannot read {args.in_path}: not enough memory") from exc
    try:
        report = performance_report(
            table, baseline=args.baseline, k_sigma=args.k_sigma, rho_deg=args.rho
        )
    except ValueError as exc:  # usable CSV but unusable sweep (too few rows, no coverage)
        raise SweepCsvError(0, str(exc)) from exc
    if report["baseline_source"] == "none":
        print("note: no MES/PS rows and no --baseline; min q is not established",
              file=sys.stderr)
    print(f"performance measures from {args.in_path} ({len(table)} rows)", file=out)
    for key, value in report.items():
        if key == "min_distinguishable_q" and value is None:
            value = "not_established"
        _print_kv(out, key, value)
    return EXIT_OK


def _cmd_reduced(args, out) -> int:
    for key, value in reduced_circuit_compare(args.variant, _resolve_noise(args.noise)).items():
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


def _dest(name: str, options: dict) -> str:
    """The namespace attribute of argument `name`, named as argparse names it."""
    return options.get("dest") or name.lstrip("-").replace("-", "_")


_NOISE = ("--noise", dict(default="none", metavar="PROFILE",
                          help="noise profile file, or 'none' / 'default'"))
_SHOT_FLAGS = (
    _NOISE,
    ("--shots", dict(type=int, default=DEFAULT_SHOTS_PER_RUN, metavar="N",
                     help="shots per run; 0 = exact distributions, no sampling")),
    ("--runs", dict(type=int, default=ShotConfig.runs, metavar="R")),
    ("--seed", dict(type=int, default=ShotConfig.seed, metavar="S")),
)

# Each command's handler, help line and arguments, positionals (a bare name)
# first, in the order help lists them.  An argument is its name and its
# add_argument keywords.  Both parsers read this table and nothing else.
_COMMANDS: dict[str, tuple[Callable, str, tuple[tuple[str, dict], ...]]] = {
    "probe": (_cmd_probe, "single-point epsilons and classification", (
        ("theta_deg", dict(type=float)),
        ("phi_deg", dict(type=float)),
        *_SHOT_FLAGS,
        ("--out", dict(metavar="FILE", help="also write a one-row sweep CSV")),
    )),
    "sweep": (_cmd_sweep, "diagonal or surface parameter sweep to CSV", (
        ("mode", dict(choices=("diagonal", "surface"))),
        ("--from", dict(type=float, default=0.0, metavar="DEG", dest="start_deg")),
        ("--to", dict(type=float, default=90.0, metavar="DEG", dest="stop_deg")),
        ("--step", dict(type=float, default=5.0, metavar="DEG")),
        *_SHOT_FLAGS,
        ("--out", dict(required=True, metavar="FILE")),
    )),
    "metrics": (_cmd_metrics, "performance measures from a sweep CSV", (
        ("--in", dict(required=True, metavar="FILE", dest="in_path")),
        ("--k-sigma", dict(type=float, default=DEFAULT_K_SIGMA)),
        ("--baseline", dict(type=float,
                            help="error floor; default: largest eps5 on MES/PS rows")),
        ("--rho", dict(type=float, default=REFERENCE_ANGLE_DEG,
                       help="reference angle (deg) for shift and interval")),
    )),
    "reduced": (_cmd_reduced, "exact error of the full circuit vs a few-gate preparation", (
        ("variant", dict(choices=("ps_00", "ps_01"))),
        _NOISE,
    )),
    "validate": (_cmd_validate, "run the built-in invariant suites", ()),
}

# argparse's own test (Python 3.10, 3.11) for a token starting with "-" that
# is a value, not a flag: a negative number, while no flag looks like one.  A
# later argparse that counts more spellings as numbers only gets those lines
# back from _parse_exact; CI runs the equivalence tests on the newest Python.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _parse_exact(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a canonical command line, or None for any other line.

    Canonical: a command, then its positionals, then `--flag value` pairs,
    each flag spelled out in full, every required flag present and every
    value converting with its type into its choices.  A value starts with
    "-" only when it is "-" or a negative number.  None leaves the line,
    help and every usage error included, to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    args = _COMMANDS[argv[0]][2]
    positionals = [arg for arg in args if not arg[0].startswith("-")]
    flags = {name: options for name, options in args if name.startswith("-")}
    tokens = argv[1 + len(positionals):]
    if len(argv) < 1 + len(positionals) or len(tokens) % 2:
        return None
    pairs = list(zip(positionals, argv[1:]))
    for name, token in zip(tokens[::2], tokens[1::2]):
        if name not in flags:
            return None
        pairs.append(((name, flags[name]), token))
    given = {}
    for (name, options), token in pairs:
        if token.startswith("-") and token != "-" and not _NEGATIVE_NUMBER.match(token):
            return None
        convert, choices = options.get("type"), options.get("choices")
        try:
            value = token if convert is None else convert(token)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        given[_dest(name, options)] = value
    if any(options.get("required") and _dest(name, options) not in given
           for name, options in flags.items()):
        return None
    defaults = {_dest(name, options): options.get("default") for name, options in flags.items()}
    return SimpleNamespace(command=argv[0], **{**defaults, **given})


def _build_parser():
    """argparse over the same table: help, usage errors and every other spelling."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse default exits with 2; contract says 1
            raise UsageError(message, usage=self.format_usage())

    parser = _Parser(
        prog="hardysim",
        description="Two-qubit Hardy nonlocality test: simulation, noisy emulation, metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, args) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        for name, options in args:
            command_parser.add_argument(name, **options)
    return parser


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_exact(argv)
        if args is None:
            args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](args, out)
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
