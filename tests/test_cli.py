"""CLI behavior: commands, exit codes, determinism, and the validate suites."""

import contextlib
import importlib.util
import io
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hardysim
from hardysim import noise, sweep
from hardysim.cli import (
    _COMMANDS,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    UsageError,
    _build_parser,
    _parse_exact,
    entry,
    main,
)
from hardysim.hardy import analytic_q
from hardysim.noise import load_noise_profile
from hardysim.selftest import run_validation_suites
from hardysim.sweep import CSV_HEADER

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def kv(text):
    pairs = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


class TestProbe:
    def test_optimum_noiseless(self):
        code, text = run_cli(["probe", "51.827", "51.827", "--noise", "none"])
        assert code == EXIT_OK
        values = kv(text)
        assert values["class"] == "NMES"
        assert abs(float(values["q_theory"]) - 0.09017) < 1e-4
        for key in ("eps1", "eps2", "eps3"):
            assert abs(float(values[key])) < 1e-6

    def test_mes_point(self):
        code, text = run_cli(["probe", "45", "90", "--noise", "none"])
        assert code == EXIT_OK
        values = kv(text)
        assert values["class"] == "MES"
        assert abs(float(values["q_theory"])) < 1e-12

    def test_single_shot_deterministic(self):
        args = ["probe", "0", "0", "--noise", "none", "--shots", "1", "--seed", "11"]
        assert run_cli(args) == run_cli(args)

    def test_singular_theta_substituted(self):
        code, text = run_cli(["probe", "90", "45", "--noise", "none", "--shots", "0"])
        assert code == EXIT_OK
        assert "substituted" in text
        assert kv(text)["theta_deg"] == "89.99"

    def test_90_and_8999_identical_rows(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        code_a, _ = run_cli(["probe", "90", "45", "--noise", "none", "--out", str(out_a)])
        code_b, _ = run_cli(["probe", "89.99", "45", "--noise", "none", "--out", str(out_b)])
        assert code_a == code_b == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_probe_out_csv_header(self, tmp_path):
        path = tmp_path / "row.csv"
        run_cli(["probe", "45", "45", "--noise", "none", "--out", str(path)])
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_optimum_exact_noiseless(self):
        # through the engine's product start and phase gates: eps1..eps3 at roundoff,
        # eps5 = q_theory in every printed digit
        code, text = run_cli(["probe", "51.827", "51.827", "--noise", "none", "--shots", "0"])
        assert code == EXIT_OK
        values = kv(text)
        for key in ("eps1", "eps2", "eps3"):
            assert abs(float(values[key])) <= 1e-12
        assert values["eps5"] == values["q_theory"]

    def test_huge_angle_is_reduced_exactly(self):
        # 1e308 is 296 modulo 360 exactly; np.radians(1e308) would lose the angle
        huge = run_cli(["probe", "1e308", "1"])
        reduced = run_cli(["probe", "296", "1"])
        assert huge[0] == reduced[0] == EXIT_OK
        assert huge[1].replace("theta_deg=1e+308\n", "theta_deg=296\n", 1) == reduced[1]
        assert kv(reduced[1])["q_theory"] == "4.72813106e-05"

    def test_default_noise_profile_flag(self):
        code, text = run_cli(["probe", "51.827", "51.827", "--noise", "default", "--shots", "0"])
        assert code == EXIT_OK
        values = kv(text)
        assert values["noise_profile"] == "default"
        assert 0.0 < float(values["eps1"]) < 0.1


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _ = run_cli(["probe", "1", "2", "--frobnicate"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage:" in err and "usage error:" in err

    def test_missing_arguments_is_usage_error(self):
        code, _ = run_cli(["probe", "1"])
        assert code == EXIT_USAGE

    def test_bad_mode_is_usage_error(self):
        code, _ = run_cli(["sweep", "spiral", "--out", "x.csv"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv,code", [(["validate"], EXIT_OK), (["sweep", "spiral"], EXIT_USAGE)]
    )
    def test_console_script_exits_with_code(self, monkeypatch, argv, code):
        monkeypatch.setattr(sys, "argv", ["hardysim", *argv])
        with pytest.raises(SystemExit) as exit_info:
            entry()
        assert exit_info.value.code == code

    def test_negative_shots_is_usage_error(self):
        code, _ = run_cli(["probe", "1", "2", "--shots", "-5"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--seed", "-1"], "--seed must be in [0, 2**64), got -1"),
            (["--seed", str(2**64)], f"--seed must be in [0, 2**64), got {2**64}"),
            (["--shots", "0", "--seed", "-1"], "--seed must be in [0, 2**64), got -1"),
            (["--shots", "0", "--runs", "-3"], "--runs must be >= 1"),
            (["--runs", "0"], "--runs must be >= 1"),
        ],
    )
    def test_bad_shot_flag_is_usage_error(self, capsys, flags, message):
        # before, -1 and 2**64 - 1 (and 2**64 and 0) sampled the same streams
        code, text = run_cli(["probe", "51.827", "51.827", "--noise", "default", *flags])
        assert code == EXIT_USAGE
        assert text == ""
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--shots", "9223372036854775807", "--runs", "3"],
            ["--shots", "99999999999999999999"],
            ["--runs", "100000000000000000000"],
        ],
    )
    def test_pooled_count_overflow_is_usage_error(self, tmp_path, capsys, flags):
        # with every readout flipped eps5 is exactly 1; before, the first
        # command printed eps5=0.333333333 from a wrapped int64 sum
        profile = tmp_path / "flip.profile"
        profile.write_text("p1=0\np2=0\nreadout0=1\nreadout1=1\n")
        code, text = run_cli(["probe", "15", "0", "--noise", str(profile), *flags])
        assert code == EXIT_USAGE
        assert text == ""
        assert "--shots * --runs must be < 2**63" in capsys.readouterr().err

    def test_unreadable_noise_file_is_io_error(self, tmp_path):
        code, _ = run_cli(["probe", "1", "2", "--noise", str(tmp_path / "missing.profile")])
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "text",
        ["p1=oops\np2=0\nreadout0=0\nreadout1=0\n",
         "p1=0.5\np2=0.01\nreadout0=0.02\nreadout1=0.02\np1=0.001\n"],
        ids=["non_numeric", "repeated_key"],
    )
    def test_malformed_noise_file_is_io_error(self, tmp_path, text):
        path = tmp_path / "bad.profile"
        path.write_text(text)
        code, _ = run_cli(["probe", "1", "2", "--noise", str(path)])
        assert code == EXIT_IO

    def test_noise_line_without_equals_sign_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.profile"
        path.write_text("p1=0\np2 0.01\nreadout0=0\nreadout1=0\n")
        assert run_cli(["probe", "1", "2", "--noise", str(path)]) == (EXIT_IO, "")
        expected = f"input error: {path}:2: expected key=value, got 'p2 0.01'\n"
        assert capsys.readouterr().err == expected

    def test_readme_profile_example(self, tmp_path):
        # the README's example profile, inline comments included
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"```\n(# my-device\.profile\n.*?)```", readme, re.S)[1]
        path = tmp_path / "my-device.profile"
        path.write_text(example)
        model = load_noise_profile(path)
        assert (model.name, model.p1, model.p2, model.readout0, model.readout1) == (
            "mychip", 0.001, 0.01, 0.02, 0.02)
        # the same four rates as the default profile
        code, text = run_cli(["probe", "40", "70", "--noise", str(path), "--shots", "0"])
        _, default = run_cli(["probe", "40", "70", "--noise", "default", "--shots", "0"])
        assert code == EXIT_OK
        assert text == default.replace("noise_profile=default", "noise_profile=mychip")

    def test_malformed_csv_is_io_error_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n1,2,3\n")
        code, _ = run_cli(["metrics", "--in", str(path)])
        assert code == EXIT_IO
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["sweep", "diagonal", "--step", "45", "--shots", "0"],
        ["probe", "40", "40", "--noise", "default"],
    ], ids=["sweep", "probe"])
    def test_unwritable_output_is_io_error(self, tmp_path, capsys, command):
        # the write comes before any output, so a failed run prints nothing
        path = tmp_path / "no" / "dir" / "x.csv"
        code, text = run_cli([*command, "--out", str(path)])
        assert code == EXIT_IO
        assert text == ""
        err = capsys.readouterr().err
        assert err == f"i/o error: [Errno 2] No such file or directory: '{path}'\n"

    def test_non_finite_angle_is_usage_error(self):
        code, _ = run_cli(["probe", "inf", "2"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--step", "0"], "--step must be positive"),
            (["--step", "-1"], "--step must be positive"),
            (["--from", "50", "--to", "10"], "--to must be >= --from"),
            # grids numpy cannot index, rejected before any array is built
            (["--to", "1e300", "--step", "1"], "--step 1 gives too many points (1e+300)"),
            (["--to", "1e308", "--step", "1e-308"], "--step 1e-308 gives too many points (inf)"),
            # one numpy can index but memory cannot hold, before allocating anything
            (["--to", "2e18", "--step", "1"], "--step 1 gives too many points (2e+18)"),
        ],
    )
    def test_inverted_range_is_usage_error(self, tmp_path, capsys, flags, message):
        path = tmp_path / "x.csv"
        code, text = run_cli(["sweep", "diagonal", *flags, "--out", str(path)])
        assert code == EXIT_USAGE
        assert text == ""
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not path.exists()

    @pytest.mark.parametrize(
        "mode,allocation,count",
        [
            ("diagonal", "numpy.arange", "3"),  # the grid
            ("surface", "numpy.arange", "9"),
            ("surface", "hardysim.sweep.flagged_probabilities", "9"),  # the engine
            ("diagonal", "hardysim.sweep.rows_to_csv", "3"),  # the render, before any file
        ],
    )
    def test_grid_out_of_memory_is_usage_error(
        self, tmp_path, capsys, monkeypatch, mode, allocation, count
    ):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(allocation, out_of_memory)
        path = tmp_path / "x.csv"
        code, text = run_cli(["sweep", mode, "--step", "45", "--out", str(path)])
        assert code == EXIT_USAGE
        assert text == ""
        err = capsys.readouterr().err
        assert err == f"usage error: --step 45 gives too many points ({count})\n"
        assert not path.exists()

    @pytest.mark.parametrize("mode,count", [("diagonal", "91"), ("surface", "8.28e+03")])
    def test_grid_beyond_physical_memory_is_usage_error(
        self, tmp_path, capsys, monkeypatch, mode, count
    ):
        # 100 kB of memory holds neither sweep; no grid array is built to find out
        def allocated(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(sweep, "_physical_memory", lambda: 10**5)
        monkeypatch.setattr(np, "arange", allocated)
        path = tmp_path / "x.csv"
        code, text = run_cli(["sweep", mode, "--step", "1", "--out", str(path)])
        assert code == EXIT_USAGE
        assert text == ""
        assert capsys.readouterr().err == f"usage error: --step 1 gives too many points ({count})\n"
        assert not path.exists()

    def test_runs_beyond_physical_memory_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # 1 MB holds the point but not the runs' counts; neither the engine nor a draw runs
        def ran(*args, **kwargs):
            raise AssertionError("engine ran")

        monkeypatch.setattr(sweep, "_physical_memory", lambda: 10**6)
        monkeypatch.setattr(sweep, "flagged_probabilities", ran)
        path = tmp_path / "x.csv"
        argv = ["probe", "40", "40", "--noise", "default", "--runs", "100000"]
        code, text = run_cli([*argv, "--out", str(path)])
        assert code == EXIT_USAGE
        assert text == ""
        err = capsys.readouterr().err
        assert err == "usage error: --runs 100000 gives too many draws (1e+05)\n"
        assert not path.exists()

    @pytest.mark.parametrize("allocation", ["flagged_probabilities", "estimate_batch"])
    def test_probe_out_of_memory_is_usage_error(
        self, tmp_path, capsys, monkeypatch, allocation
    ):
        # runs within physical memory that the engine or the draws cannot allocate
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(sweep, allocation, out_of_memory)
        path = tmp_path / "x.csv"
        argv = ["probe", "40", "40", "--noise", "default", "--runs", "100000"]
        code, text = run_cli([*argv, "--out", str(path)])
        assert code == EXIT_USAGE
        assert text == ""
        err = capsys.readouterr().err
        assert err == "usage error: --runs 100000 gives too many draws (1e+05)\n"
        assert not path.exists()

    def test_sweep_runs_need_no_memory_per_run(self, tmp_path, monkeypatch):
        # a sweep draws 4 pooled counts per point whatever --runs is, so the
        # 1 MB that refuses probe's 100000 runs holds 19 points at 10000
        monkeypatch.setattr(sweep, "_physical_memory", lambda: 10**6)
        path = tmp_path / "x.csv"
        code, text = run_cli(["sweep", "diagonal", "--step", "5", "--runs", "10000",
                              "--out", str(path)])
        assert code == EXIT_OK
        assert text == f"wrote 19 rows to {path}\n"
        assert len(path.read_text().splitlines()) == 1 + 19

    def test_metrics_on_two_rows_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text(
            CSV_HEADER + "\n40,40,0.02,0,0,0,0.05,0.03,0.001,NMES\n"
            "50,50,0.08,0,0,0,0.1,0.02,0.001,NMES\n"
        )
        code, _ = run_cli(["metrics", "--in", str(path)])
        assert code == EXIT_IO
        assert "at least 3 rows" in capsys.readouterr().err

    def test_metrics_out_of_memory_is_input_error(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        path = tmp_path / "peak.csv"
        write_peaked_csv(path, 51.827)
        monkeypatch.setattr(sweep, "_loadtxt", out_of_memory)
        code, text = run_cli(["metrics", "--in", str(path)])
        assert code == EXIT_IO
        assert text == ""
        assert capsys.readouterr().err == f"input error: cannot read {path}: not enough memory\n"


class TestMetricsInputChecks:
    """Bad metrics flags are usage errors; bad CSV cells are input errors."""

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--k-sigma", "-5"], "--k-sigma must be positive"),
            (["--k-sigma", "0"], "--k-sigma must be positive"),
            (["--k-sigma", "nan"], "k_sigma must be finite"),
            (["--rho", "nan"], "rho must be finite"),
            (["--baseline", "inf"], "baseline must be finite"),
            (["--baseline", "1.5"], "--baseline must be in [0, 1], got 1.5"),
        ],
    )
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        path = tmp_path / "peak.csv"
        write_peaked_csv(path, 51.827)
        code, _ = run_cli(["metrics", "--in", str(path), *flags])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_negative_baseline_is_usage_error(self, tmp_path, capsys):
        # before the check, -1 made every NMES row pass on a 5-degree sweep
        path = tmp_path / "diag.csv"
        assert run_cli(
            ["sweep", "diagonal", "--from", "0", "--to", "90", "--step", "5",
             "--noise", "default", "--out", str(path)]
        )[0] == EXIT_OK
        code, text = run_cli(["metrics", "--in", str(path), "--baseline", "-1"])
        assert code == EXIT_USAGE
        assert "min_distinguishable_q" not in text
        assert "--baseline must be in [0, 1], got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cells,message",
        [
            ({0: "nan"}, "non-finite theta_deg"),
            ({2: "nan", 6: "nan", 7: "nan"}, "non-finite q_theory"),
            ({8: "inf"}, "non-finite stat_err"),
            ({3: "1.5"}, "eps1=1.5 outside [0, 1]"),
            ({2: "-0.25", 7: "0.35"}, "q_theory=-0.25 outside [0, 1]"),
            # eps5 - q_theory is inf - inf: no numpy warning, only this line
            ({2: "inf", 6: "inf"}, "non-finite q_theory"),
        ],
    )
    def test_bad_csv_cell_is_input_error(self, tmp_path, capsys, cells, message):
        path = tmp_path / "bad.csv"
        write_peaked_csv(path, 51.827)
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        for index, value in cells.items():
            fields[index] = value
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        code, _ = run_cli(["metrics", "--in", str(path)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"input error: line 4: {message}\n"


class TestGoldenOutputs:
    """Output bytes must match files saved from earlier implementations.

    The exact CSV was saved from the per-gate Kraus implementation, the
    sampled one from the counter-based sampler (SplitMix64 uniforms,
    inversion and BTRD, each experiment one pooled draw per point), whose
    every epsilon lies within 6 sigma of the `--shots 0` values (the worst
    cell at 3.36 sigma; test_sampled_golden_is_within_6_sigma_of_exact
    checks it).  The sampled surface CSV was saved while the engine still
    returned all sixteen outcome probabilities of a point and the sampler
    drew at each flagged one divided by its experiment's sum.  The metrics
    lines were saved from the per-row implementation, before the columnar
    table, with the zero_condition_max line appended when it was added;
    their input is the sampled CSV of the earlier per-run multinomial
    sampler.  The validate lines were saved from
    the 16-entry phase-gate kernel that composed the checks' circuits before
    the basis-permutation form.  The probe lines and the probe CSV were saved
    while the CLI still built probe's lines itself, before `probe_report`.
    """

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("surface_15deg_exact_default.csv",
             ["sweep", "surface", "--from", "0", "--to", "90", "--step", "15",
              "--noise", "default", "--shots", "0"]),
            ("diagonal_5deg_sampled_default_seed7_binomial.csv",
             ["sweep", "diagonal", "--from", "0", "--to", "90", "--step", "5",
              "--noise", "default", "--seed", "7"]),
            ("surface_15deg_sampled_default_seed3.csv",
             ["sweep", "surface", "--from", "0", "--to", "90", "--step", "15",
              "--noise", "default", "--seed", "3"]),
            ("probe_optimum_default_runs100.csv",
             ["probe", "51.827", "51.827", "--noise", "default", "--runs", "100"]),
        ],
    )
    def test_csv_matches_golden(self, tmp_path, name, argv):
        out = tmp_path / name
        assert run_cli([*argv, "--out", str(out)])[0] == EXIT_OK
        assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()

    @pytest.mark.parametrize(
        "name,argv",
        [
            # every draw by BTRD (n p >= 10); eps5_run_std is not 0
            ("probe_optimum_default_runs100.txt",
             ["probe", "51.827", "51.827", "--noise", "default", "--runs", "100"]),
            # the singular-theta note, then the substitute's lines
            ("probe_singular_theta_default_runs100_seed5.txt",
             ["probe", "90", "45", "--noise", "default", "--runs", "100", "--seed", "5"]),
        ],
    )
    def test_probe_matches_golden(self, name, argv):
        assert run_cli(argv) == (EXIT_OK, (GOLDEN_DIR / name).read_text())

    def test_sampled_golden_is_within_6_sigma_of_exact(self, tmp_path):
        # checks every regeneration of the sampled golden against the exact
        # sweep it samples: sigma = sqrt(p (1 - p) / (shots * runs))
        exact = tmp_path / "exact.csv"
        argv = ["sweep", "diagonal", "--from", "0", "--to", "90", "--step", "5",
                "--noise", "default", "--shots", "0", "--out", str(exact)]
        assert run_cli(argv)[0] == EXIT_OK
        expected = sweep.read_csv(exact)
        golden = sweep.read_csv(GOLDEN_DIR / "diagonal_5deg_sampled_default_seed7_binomial.csv")
        np.testing.assert_array_equal(golden.theta_deg, expected.theta_deg)
        p = expected.eps
        sigma = np.sqrt(p * (1.0 - p) / (8192 * 10))
        assert np.all(np.abs(golden.eps - p) <= 6.0 * sigma)

    # Unequal gate and readout rates, so a swapped qubit mapping of any
    # rate changes the output; stdout saved from the four-matrix noise model.
    UNEQUAL_PROFILE = "p1=0.003\np2=0.02\nreadout0=0.01\nreadout1=0.04\n"
    UNEQUAL_OUTPUTS = [
        (["probe", "40", "70", "--shots", "0"],
         "theta_deg=40\nphi_deg=70\nclass=NMES\nconcurrence=0.925416578\n"
         "q_theory=0.0394309454\neps1=0.0393036493\nstat_err1=0\neps2=0.035214536\n"
         "stat_err2=0\neps3=0.0345695538\nstat_err3=0\neps5=0.0664682471\n"
         "stat_err5=0\neps5_run_std=0\neps4_est=0.0270373018\nnoise_profile=unequal\n"),
    ]

    @pytest.mark.parametrize("argv,expected", UNEQUAL_OUTPUTS, ids=["probe"])
    def test_unequal_rates_profile_matches_saved_output(self, tmp_path, argv, expected):
        profile = tmp_path / "unequal.profile"
        profile.write_text(self.UNEQUAL_PROFILE)
        assert run_cli([*argv, "--noise", str(profile)]) == (EXIT_OK, expected)

    # `reduced` stdout saved for both variants under six noise models, four of them
    # profiles: (full_eps, reduced_eps).  ps_00's noiseless reduced_eps is a rounding
    # residue of its gate entries, pinned as the engine computes it.  "ones" and "half"
    # are the extremes: a rate-1 readout flip is a swap, `_mixed` at p = 2.
    PROFILES = {
        "unequal": UNEQUAL_PROFILE,
        "large": "p1=0.3\np2=0.2\nreadout0=0.1\nreadout1=0.05\n",
        "ones": "p1=1\np2=1\nreadout0=1\nreadout1=1\n",
        "half": "p1=0.5\np2=0\nreadout0=0.5\nreadout1=0\n",
    }
    REDUCED_OUTPUTS = {
        ("ps_00", "none"): ("0", "4.62149164e-65"),
        ("ps_01", "none"): ("0", "0"),
        ("ps_00", "default"): ("0.00595515297", "0.00042925097"),
        ("ps_01", "default"): ("0.00595515297", "0.00042925097"),
        ("ps_00", "large"): ("0.227274115", "0.06149"),
        ("ps_01", "large"): ("0.227274115", "0.06149"),
        ("ps_00", "unequal"): ("0.0121529646", "0.000490409714"),
        ("ps_01", "unequal"): ("0.0121529646", "0.000490409714"),
        ("ps_00", "ones"): ("0.25", "0.25"),
        ("ps_01", "ones"): ("0.25", "0.25"),
        ("ps_00", "half"): ("0.24609375", "0.1875"),
        ("ps_01", "half"): ("0.24609375", "0.1875"),
    }

    @pytest.mark.parametrize("variant,noise_name", REDUCED_OUTPUTS)
    def test_reduced_matches_saved_output(self, tmp_path, variant, noise_name):
        full_eps, reduced_eps = self.REDUCED_OUTPUTS[variant, noise_name]
        noise_arg = noise_name
        if noise_name in self.PROFILES:
            noise_arg = tmp_path / f"{noise_name}.profile"
            noise_arg.write_text(self.PROFILES[noise_name])
        expected = (f"variant={variant}\nfull_eps={full_eps}\nreduced_eps={reduced_eps}\n"
                    "full_gate_count=14\nreduced_gate_count=3\n")
        assert run_cli(["reduced", variant, "--noise", str(noise_arg)]) == (EXIT_OK, expected)

    def test_metrics_matches_golden(self):
        golden = GOLDEN_DIR / "metrics_diagonal_5deg_sampled_default_seed7.txt"
        code, text = run_cli(
            ["metrics", "--in", str(GOLDEN_DIR / "diagonal_5deg_sampled_default_seed7.csv")]
        )
        assert code == EXIT_OK
        lines = "".join(line + "\n" for line in text.splitlines() if "=" in line)
        assert lines.encode() == golden.read_bytes()

    def test_validate_matches_golden(self):
        # every suite's printed residual, byte for byte, not only its name and verdict
        code, text = run_cli(["validate"])
        assert code == EXIT_OK
        assert text.encode() == (GOLDEN_DIR / "validate.txt").read_bytes()


class TestSweepCommand:
    @pytest.mark.parametrize(
        "flags,shapes",
        [
            (["--step", "7.5"], ((13, 1), (1, 13))),
            # the substitute of 90 is dropped: one theta, two phi
            (["--from", "89.995", "--to", "90", "--step", "0.005"], ((1, 1), (1, 2))),
        ],
    )
    def test_surface_is_one_engine_call_on_a_column_and_a_row(
        self, tmp_path, monkeypatch, flags, shapes
    ):
        engine_call, calls = sweep.flagged_probabilities, []

        def recording(theta, phi, noise):
            calls.append((np.shape(theta), np.shape(phi)))
            return engine_call(theta, phi, noise)

        monkeypatch.setattr(sweep, "flagged_probabilities", recording)
        code, _ = run_cli(["sweep", "surface", *flags, "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_OK
        assert calls == [shapes]

    def test_diagonal_19_rows(self, tmp_path):
        path = tmp_path / "diag.csv"
        code, _ = run_cli(
            ["sweep", "diagonal", "--from", "0", "--to", "90", "--step", "5",
             "--noise", "none", "--shots", "0", "--out", str(path)]
        )
        assert code == EXIT_OK
        lines = path.read_text().splitlines()
        assert len(lines) == 20  # header + 19 points
        assert lines[-1].startswith("89.99,")

    def test_refinement_21_rows(self, tmp_path):
        path = tmp_path / "fine.csv"
        run_cli(
            ["sweep", "diagonal", "--from", "55", "--to", "75", "--step", "1",
             "--noise", "none", "--shots", "0", "--out", str(path)]
        )
        assert len(path.read_text().splitlines()) == 22

    def test_surface_row_count(self, tmp_path):
        path = tmp_path / "surf.csv"
        code, _ = run_cli(
            ["sweep", "surface", "--from", "0", "--to", "90", "--step", "30",
             "--noise", "none", "--shots", "0", "--out", str(path)]
        )
        assert code == EXIT_OK
        assert len(path.read_text().splitlines()) == 1 + 4 * 4

    def test_surface_max_cell(self, tmp_path):
        path = tmp_path / "surf.csv"
        run_cli(
            ["sweep", "surface", "--from", "48", "--to", "56", "--step", "1",
             "--noise", "none", "--shots", "0", "--out", str(path)]
        )
        best = max(
            (float(line.split(",")[2]) for line in path.read_text().splitlines()[1:]),
        )
        assert abs(best - 0.0902) < 1e-3

    @pytest.mark.parametrize("mode", ["diagonal", "surface"])
    def test_uneven_step_stops_at_to(self, tmp_path, mode):
        # 10 / 0.6 = 16.7 steps: rounding would end at 10.2; whole steps end
        # at 9.6, then --to itself
        path = tmp_path / "uneven.csv"
        code, _ = run_cli(
            ["sweep", mode, "--from", "0", "--to", "10", "--step", "0.6",
             "--noise", "none", "--shots", "0", "--out", str(path)]
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        thetas = [float(row[0]) for row in rows]
        phis = [float(row[1]) for row in rows]
        assert max(thetas) == max(phis) == 10.0
        assert thetas[-1] == phis[-1] == 10.0
        assert sorted(set(thetas))[-2] == pytest.approx(9.6)

    def test_exact_surface_matches_stored_reference(self, tmp_path):
        # the full-precision 5-degree surface stored with the benchmark, read only:
        # every numeric cell within 1e-9 and every class equal
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "ref" / "surface_exact.csv"
        path = tmp_path / "surface.csv"
        assert run_cli(["sweep", "surface", "--from", "0", "--to", "90", "--step", "5",
                        "--noise", "default", "--shots", "0", "--out", str(path)])[0] == EXIT_OK
        got, ref = path.read_text().splitlines(), reference.read_text().splitlines()
        assert got[0] == ref[0] == CSV_HEADER
        assert len(got) == len(ref) == 1 + 19 * 19
        for line, (a, b) in enumerate(zip(got[1:], ref[1:]), 2):
            *numbers, kind = a.split(",")
            *expected, expected_kind = b.split(",")
            assert kind == expected_kind, line
            assert np.max(np.abs(np.array(numbers, float) - np.array(expected, float))) <= 1e-9, line

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "diagonal", "--from", "0", "--to", "90", "--step", "15",
                "--noise", "default", "--seed", "42", "--out"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + [str(a)])[0] == EXIT_OK
        assert run_cli(args + [str(b)])[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_sampled_sweep_depends_on_shots_times_runs(self, tmp_path):
        # a sweep draws each pooled count once, so only the product of --shots
        # and --runs reaches its bytes
        base = ["sweep", "diagonal", "--step", "5", "--noise", "default", "--seed", "3"]
        outputs = []
        for shots, runs in (("8192", "10"), ("81920", "1"), ("4096", "20")):
            path = tmp_path / f"{shots}x{runs}.csv"
            argv = [*base, "--shots", shots, "--runs", runs, "--out", str(path)]
            assert run_cli(argv)[0] == EXIT_OK
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_sweep_draws_four_counts_per_point(self, tmp_path, monkeypatch):
        sizes = []

        def counted(seed, n, p, *rest):
            sizes.append(p.size)
            np.testing.assert_array_equal(n, 8192 * 10)
            return sample_counts(seed, n, p, *rest)

        sample_counts = noise._sample_counts
        monkeypatch.setattr(noise, "_sample_counts", counted)
        path = tmp_path / "x.csv"
        argv = ["sweep", "diagonal", "--step", "5", "--noise", "default", "--out", str(path)]
        assert run_cli(argv)[0] == EXIT_OK
        assert sizes == [4 * 19]

    def test_seed_changes_sampled_output(self, tmp_path):
        base = ["sweep", "diagonal", "--from", "40", "--to", "60", "--step", "10",
                "--noise", "default", "--out"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(base + [str(a), "--seed", "1"])
        run_cli(base + [str(b), "--seed", "2"])
        assert a.read_bytes() != b.read_bytes()


def write_peaked_csv(path, peak_deg, step=1.0):
    """Synthetic diagonal sweep whose eps5 peaks exactly at peak_deg."""
    lines = [CSV_HEADER]
    for t in [x * step for x in range(int(90 / step) + 1)]:
        q = analytic_q(math.radians(t), math.radians(t))
        eps5 = 0.02 + 0.1 * math.exp(-((t - peak_deg) ** 2) / 60.0)
        kind = "PS" if t in (0.0, 90.0) else "NMES"
        lines.append(
            f"{t:.9g},{t:.9g},{q:.9g},0,0,0,{eps5:.9g},{eps5 - q:.9g},0.001,{kind}"
        )
    path.write_text("\n".join(lines) + "\n")


def write_hardware_scale_csv(path):
    """Rows at real-device scale: floor 0.0807 from the MES row, a ladder of 7 NMES rows."""
    rows = [
        (45, 90, 0.0, 0.0807, 0.0037, "MES"),
        (0, 0, 0.0, 0.0193, 0.0014, "PS"),
        (90, 0, 0.0, 0.0209, 0.0015, "PS"),
        (45, 0, 0.0, 0.0217, 0.0019, "PS"),
        (90, 45, 0.0, 0.0282, 0.0013, "PS"),
        (51.827, 51.827, 0.09017, 0.1281, 0.0039, "NMES"),
        (45, 45, 0.0833, 0.1041, 0.0044, "NMES"),
        (55, 55, 0.0886, 0.1273, 0.0045, "NMES"),
        (30, 60, 0.0433, 0.0832, 0.0052, "NMES"),
        (60, 30, 0.0433, 0.0553, 0.0028, "NMES"),
        (10, 80, 0.00088, 0.067, 0.0038, "NMES"),
        (80, 10, 0.00088, 0.0241, 0.0016, "NMES"),
    ]
    lines = [CSV_HEADER]
    for t, p, q, e5, err, kind in rows:
        lines.append(f"{t},{p},{q},0,0,0,{e5},{e5 - q},{err},{kind}")
    path.write_text("\n".join(lines) + "\n")


class TestMetricsCommand:
    def test_peak_at_62_gives_shift(self, tmp_path):
        path = tmp_path / "peak62.csv"
        write_peaked_csv(path, 62.0)
        code, text = run_cli(["metrics", "--in", str(path)])
        assert code == EXIT_OK
        assert abs(float(kv(text)["shift_deg"]) - 10.173) < 1.0

    def test_peak_at_40_gives_delta(self, tmp_path):
        path = tmp_path / "peak40.csv"
        write_peaked_csv(path, 40.0)
        code, text = run_cli(["metrics", "--in", str(path)])
        assert code == EXIT_OK
        assert abs(float(kv(text)["delta_interval_deg"]) - 11.827) < 1.0

    def test_hardware_scale_min_q(self, tmp_path):
        path = tmp_path / "table.csv"
        write_hardware_scale_csv(path)
        code, text = run_cli(["metrics", "--in", str(path)])
        assert code == EXIT_OK
        values = kv(text)
        assert abs(float(values["baseline_eps4"]) - 0.0807) < 1e-12
        min_q = float(values["min_distinguishable_q"])
        assert 0.0433 < min_q <= 0.0833

    def test_not_established_rendering(self, tmp_path):
        path = tmp_path / "flat.csv"
        write_peaked_csv(path, 51.827)
        code, text = run_cli(["metrics", "--in", str(path), "--baseline", "0.99"])
        assert code == EXIT_OK
        assert kv(text)["min_distinguishable_q"] == "not_established"

    def test_custom_rho(self, tmp_path):
        path = tmp_path / "peak.csv"
        write_peaked_csv(path, 62.0)
        code, text = run_cli(["metrics", "--in", str(path), "--rho", "62"])
        assert code == EXIT_OK
        assert float(kv(text)["shift_deg"]) < 1e-9


    def test_sweep_without_floor_rows(self, tmp_path, capsys):
        path = tmp_path / "nofloor.csv"
        assert run_cli(
            ["sweep", "diagonal", "--from", "40", "--to", "60", "--step", "2",
             "--noise", "default", "--shots", "0", "--out", str(path)]
        )[0] == EXIT_OK
        code, text = run_cli(["metrics", "--in", str(path)])
        assert code == EXIT_OK
        values = kv(text)
        assert values["baseline_source"] == "none"
        assert values["baseline_eps4"] == "none"
        assert values["min_distinguishable_q"] == "not_established"
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "min q is not established" in err

    def test_zero_condition_max_line(self, tmp_path):
        path = tmp_path / "peak.csv"
        write_peaked_csv(path, 51.827)
        lines = path.read_text().splitlines()
        for index, eps in ((5, "0.0125"), (40, "0.03125")):  # eps1 and eps3 of two rows
            fields = lines[index].split(",")
            fields[3 if index == 5 else 5] = eps
            lines[index] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        code, text = run_cli(["metrics", "--in", str(path)])
        assert code == EXIT_OK
        assert kv(text)["zero_condition_max"] == "0.03125"
        assert "\nzero_condition_max=0.03125\nrows_ps=" in text  # last of the measures

    def test_baseline_source_lines(self, tmp_path):
        path = tmp_path / "peak.csv"
        write_peaked_csv(path, 51.827)
        assert kv(run_cli(["metrics", "--in", str(path)])[1])["baseline_source"] == "rows"
        flagged = run_cli(["metrics", "--in", str(path), "--baseline", "0.05"])[1]
        assert kv(flagged)["baseline_source"] == "flag"
        assert kv(flagged)["baseline_eps4"] == "0.05"

    def test_peak_diagnostic_lines(self, tmp_path):
        path = tmp_path / "peak.csv"
        write_peaked_csv(path, 62.0)
        values = kv(run_cli(["metrics", "--in", str(path)])[1])
        assert (values["peak_tied"], values["peak_on_boundary"]) == ("false", "false")
        assert values["shift_deg"] == values["delta_interval_deg"]
        write_peaked_csv(path, 90.0)
        values = kv(run_cli(["metrics", "--in", str(path)])[1])
        assert values["peak_on_boundary"] == "true"
        lines = [CSV_HEADER]
        for t, eps5 in ((40, 0.2), (50, 0.2), (60, 0.1)):
            q = analytic_q(math.radians(t), math.radians(t))
            lines.append(f"{t},{t},{q:.9g},0,0,0,{eps5},{eps5 - q:.9g},0.001,NMES")
        path.write_text("\n".join(lines) + "\n")
        values = kv(run_cli(["metrics", "--in", str(path)])[1])
        assert (values["peak_tied"], values["peak_on_boundary"]) == ("true", "true")
        assert abs(float(values["shift_deg"]) - (51.827 - 40.0)) < 1e-9


class TestMetricsDecisionLines:
    """The key=value lines after the measures: the inputs behind min q."""

    def metrics(self, tmp_path, *flags):
        path = tmp_path / "table.csv"
        write_hardware_scale_csv(path)
        code, text = run_cli(["metrics", "--in", str(path), *flags])
        assert code == EXIT_OK
        return kv(text)

    def test_row_class_counts(self, tmp_path):
        values = self.metrics(tmp_path)
        assert (values["rows_ps"], values["rows_mes"], values["rows_nmes"]) == ("4", "1", "7")

    def test_floor_rows(self, tmp_path):
        assert self.metrics(tmp_path)["floor_rows"] == "5"
        assert self.metrics(tmp_path, "--baseline", "0.05")["floor_rows"] == "0"

    def test_ladder_stops_at_first_failing_rung(self, tmp_path):
        # rungs 0.09017, 0.0886, 0.0833 pass; the first q = 0.0433 row fails
        values = self.metrics(tmp_path)
        assert (values["ladder_passed"], values["ladder_length"]) == ("3", "7")
        assert values["ladder_stop_q"] == "0.0433"
        assert values["min_distinguishable_q"] == "0.0833"

    def test_ladder_without_failing_rung(self, tmp_path):
        values = self.metrics(tmp_path, "--baseline", "0")
        assert (values["ladder_passed"], values["ladder_length"]) == ("7", "7")
        assert values["ladder_stop_q"] == "none"

    def test_free_passes(self, tmp_path):
        # eps4_est - 3 stat_err exceeds 0.01 on all NMES rows but q = 0.0833 and
        # the second q = 0.0433 row; none reaches the 0.0807 row floor
        assert self.metrics(tmp_path)["free_passes"] == "0"
        assert self.metrics(tmp_path, "--baseline", "0.01")["free_passes"] == "5"

    def test_exact_input(self, tmp_path):
        assert self.metrics(tmp_path)["exact_input"] == "false"

    def test_vacuous_min_q_is_visible(self, tmp_path):
        # an exact 5-degree diagonal: min q rests on one PS row and no
        # statistical margin
        path = tmp_path / "exact.csv"
        assert run_cli(["sweep", "diagonal", "--step", "5", "--noise", "default",
                        "--shots", "0", "--out", str(path)])[0] == EXIT_OK
        code, text = run_cli(["metrics", "--in", str(path)])
        assert code == EXIT_OK
        values = kv(text)
        assert (values["exact_input"], values["floor_rows"]) == ("true", "1")
        assert values["free_passes"] != "0"

    def test_no_floor_prints_none(self, tmp_path):
        path = tmp_path / "nofloor.csv"
        assert run_cli(["sweep", "diagonal", "--from", "40", "--to", "60", "--step", "2",
                        "--noise", "default", "--shots", "0", "--out", str(path)])[0] == EXIT_OK
        values = kv(run_cli(["metrics", "--in", str(path)])[1])
        assert values["floor_rows"] == "0"
        for key in ("ladder_passed", "ladder_length", "ladder_stop_q", "free_passes"):
            assert values[key] == "none"
        assert values["rows_nmes"] == "11"


class TestReducedCommand:
    @pytest.mark.parametrize("variant", ["ps_00", "ps_01"])
    def test_fewer_gates_less_error(self, variant):
        code, text = run_cli(["reduced", variant, "--noise", "default"])
        assert code == EXIT_OK
        values = kv(text)
        assert list(values) == [
            "variant", "full_eps", "reduced_eps", "full_gate_count", "reduced_gate_count"
        ]
        assert values["variant"] == variant
        assert 0.0 < float(values["reduced_eps"]) < float(values["full_eps"])
        assert int(values["reduced_gate_count"]) < int(values["full_gate_count"])

    def test_bad_variant_is_usage_error(self, capsys):
        code, text = run_cli(["reduced", "ps_11", "--noise", "default"])
        assert code == EXIT_USAGE
        assert text == ""
        assert "invalid choice" in capsys.readouterr().err

    def test_unreadable_noise_file_is_io_error(self, tmp_path):
        code, _ = run_cli(["reduced", "ps_00", "--noise", str(tmp_path / "missing.profile")])
        assert code == EXIT_IO


SUITE_NAMES = [
    "gate-unitarity",
    "beam-splitter-anchor",
    "coupling-decomposition",
    "hardy-zero-probabilities",
    "analytic-q-equivalence",
    "state-classification",
    "q-maximum-location",
]

# Runs one command in a fresh interpreter and reports whether numpy.random
# and secrets (which numpy.random imports, and with it OpenSSL) were
# imported, then every module `main` itself imported; prints
# "numpy-imports-random" when `import numpy` alone imports numpy.random
# (numpy before 2.0), where the question cannot be asked.  A module first
# imported inside `main` costs every fresh process (np.unique imports
# numpy.ma, np.loadtxt given a str path imports gzip), which in-process
# timing never shows.
NO_RANDOM_SCRIPT = """
import io, sys
import numpy
if "numpy.random" in sys.modules:
    print("numpy-imports-random")
    raise SystemExit(0)
from hardysim.cli import main
before = set(sys.modules)
code = main(sys.argv[1:], out=io.StringIO())
print(code, "numpy.random" in sys.modules, "secrets" in sys.modules,
      *sorted(set(sys.modules) - before))
"""



class TestValidateCommand:
    def test_seven_named_suites_deterministic(self):
        first, second = run_cli(["validate"]), run_cli(["validate"])
        assert first == second
        code, text = first
        assert code == EXIT_OK
        names = [line.split(":")[0].split(" ", 1)[1] for line in text.splitlines()[:-1]]
        assert names == SUITE_NAMES
        assert text.splitlines()[-1] == "7/7 suites passed"

    def test_suite_angles_evenly_spread(self):
        import hardysim.selftest as selftest_mod

        angles = np.sort(selftest_mod._spread(200, 0.0, 2 * math.pi))
        assert 0.0 <= angles[0] and angles[-1] < 2 * math.pi
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
        assert np.max(gaps) < 3.0 * (2 * math.pi) / 200

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["sweep", "surface", "--step", "15", "--noise", "default", "--shots", "0"],
            # sampled: the shot sampler hashes its own uniforms in plain numpy
            ["sweep", "diagonal", "--step", "5", "--noise", "default", "--seed", "3"],
            ["probe", "40", "40", "--noise", "default", "--seed", "3"],
            ["probe", "51.827", "51.827", "--noise", "default"],
            ["metrics", "--in", str(GOLDEN_DIR / "diagonal_5deg_sampled_default_seed7.csv")],
            ["reduced", "ps_00", "--noise", "default"],
        ],
        ids=["validate", "exact-sweep", "sampled-sweep", "sampled-probe", "probe", "metrics",
             "reduced"],
    )
    def test_commands_import_no_module_inside_main(self, tmp_path, argv):
        if argv[0] == "sweep" or argv[1:3] == ["40", "40"]:
            argv = argv + ["--out", str(tmp_path / "out.csv")]
        src = str(Path(hardysim.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", NO_RANDOM_SCRIPT, *argv],
            capture_output=True, text=True, env=env, check=True,
        )
        if result.stdout.strip() == "numpy-imports-random":
            pytest.skip("this numpy imports numpy.random on `import numpy`")
        assert result.stdout.split() == [str(EXIT_OK), "False", "False"]

    def test_fresh_build_passes(self):
        code, text = run_cli(["validate"])
        assert code == EXIT_OK
        suites = [line for line in text.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert len(suites) >= 6
        assert all(line.startswith("PASS") for line in suites)

    def test_corrupted_lambda_binding_fails_coupling_suite(self, monkeypatch):
        from hardysim import gates

        coupling_steps = gates.coupling_steps
        monkeypatch.setattr(gates, "coupling_steps", lambda lam: coupling_steps(lam * 1.02))
        results = {name: ok for name, ok, _ in run_validation_suites()}
        assert results["coupling-decomposition"] is False
        assert results["beam-splitter-anchor"] is True

    @pytest.mark.parametrize("family", ["u1", "coupling"])
    def test_scaled_gate_family_fails_unitarity_suite(self, monkeypatch, family):
        """Each of the two stacks is checked: a 2x2 family (u1) or a 4x4 one (coupling)
        off unitarity by a factor 1 + 1e-9 fails the suite."""
        import hardysim.selftest as selftest_mod
        from hardysim import gates

        assert selftest_mod._suite_gate_unitarity()[1] is True
        build = getattr(gates, family)
        monkeypatch.setattr(gates, family, lambda angle: build(angle) * (1.0 + 1e-9))
        name, ok, detail = selftest_mod._suite_gate_unitarity()
        assert (name, ok) == ("gate-unitarity", False)
        assert float(detail.split()[-1]) > selftest_mod.VALIDATION_TOL

    def test_grid_is_one_engine_batch(self, monkeypatch):
        import hardysim.selftest as selftest_mod

        engine_call, batches = selftest_mod.flagged_probabilities, []

        def counting(theta, phi, noise):
            batches.append(np.broadcast_shapes(np.shape(theta), np.shape(phi)))
            return engine_call(theta, phi, noise)

        monkeypatch.setattr(selftest_mod, "flagged_probabilities", counting)
        results = run_validation_suites()
        assert all(ok for _, ok, _ in results)
        assert batches == [(37, 37)]

    def test_perturbed_flagged_entry_fails_zero_suite(self, monkeypatch):
        import hardysim.selftest as selftest_mod

        engine_call = selftest_mod.flagged_probabilities

        def perturbed(theta, phi, noise):
            flagged = engine_call(theta, phi, noise).copy()
            flagged[18, 34, 1] += 1e-9  # second experiment's flagged outcome |01>
            return flagged

        monkeypatch.setattr(selftest_mod, "flagged_probabilities", perturbed)
        results = {name: ok for name, ok, _ in run_validation_suites()}
        assert results["hardy-zero-probabilities"] is False
        assert results["analytic-q-equivalence"] is True

    def test_negative_flagged_q_fails_q_suite(self, monkeypatch):
        # The grid suites read the engine's flagged probabilities as it returns them,
        # not measure_points' eps, which are clipped at 0: a flagged q below an exact
        # q = 0 (phi = 0) would read as 0 there and pass.
        import hardysim.selftest as selftest_mod

        engine_call = selftest_mod.flagged_probabilities

        def perturbed(theta, phi, noise):
            flagged = engine_call(theta, phi, noise).copy()
            flagged[18, 0, 3] -= 5e-10  # fourth experiment's flagged outcome |00>
            return flagged

        monkeypatch.setattr(selftest_mod, "flagged_probabilities", perturbed)
        results = {name: ok for name, ok, _ in run_validation_suites()}
        assert results["analytic-q-equivalence"] is False
        assert results["hardy-zero-probabilities"] is True

    def test_validation_exit_code_path(self, monkeypatch):
        import hardysim.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "run_validation_suites", lambda: [("stub-suite", False, "forced")]
        )
        code, text = run_cli(["validate"])
        assert code == EXIT_VALIDATION
        assert "FAIL stub-suite" in text


# ---------------------------------------------------------------- the two parsers

# Each value below is one argparse takes as a value or rejects; the fast path
# must agree with argparse or defer to it.  argparse reads "-5\n" and "-\u0665"
# (an Arabic-Indic 5) as negative numbers.
ODD_VALUES = ["-", "-5", "-.5", "-5.", "-1e3", "1e3", "nan", "", "spiral", "ps_02", "-0", "x",
              "-5\n", "-\u0665", "-5 "]
ODD_TOKENS = [*ODD_VALUES, "--frob", "-h", "--help", "--", "--out", "--noise", "--step", "5"]


def argument_values(options):
    """Tokens that convert with an argument's type into its choices, some starting with "-"."""
    if options.get("choices") is not None:
        return st.sampled_from(options["choices"])
    if options.get("type") is int:
        return st.integers(-(2**70), 2**70).map(str)
    if options.get("type") is float:
        return st.one_of(
            st.floats(min_value=0.0).map(repr),
            st.sampled_from(["-5", "-.5", "-0", "-0.25", "nan", "inf", "1e3", "1_0", " 7 "]),
        )
    return st.one_of(
        st.sampled_from(["none", "default", "out.csv", "-", "a=b", "", "-5"]),
        st.text(max_size=8).filter(lambda text: not text.startswith("-")),
    )


@st.composite
def canonical_lines(draw):
    """A command, its positionals, then `--flag value` pairs, required flags included."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    args = _COMMANDS[command][2]
    line = [command, *(draw(argument_values(o)) for n, o in args if not n.startswith("-"))]
    flags = {n: o for n, o in args if n.startswith("-")}
    chosen = set(draw(st.lists(st.sampled_from(sorted(flags)), unique=True))) if flags else set()
    chosen |= {n for n, o in flags.items() if o.get("required")}
    for name in draw(st.permutations(sorted(chosen))):
        line += [name, draw(argument_values(flags[name]))]
    return line


@st.composite
def other_lines(draw):
    """A canonical line with one to three edits argparse reads in its own way, or rejects."""
    line = draw(canonical_lines())
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["value", "insert", "abbreviate", "join", "repeat",
                                     "rotate", "drop", "drop_flag"]))
        index = draw(st.integers(0, max(len(line) - 1, 0)))
        flag_indices = [i for i, token in enumerate(line) if token.startswith("--")]
        if edit == "value" and line:
            line[index] = draw(st.sampled_from(ODD_VALUES))
        elif edit == "insert":
            line.insert(index, draw(st.sampled_from(ODD_TOKENS)))
        elif edit == "drop" and line:
            del line[index]
        elif edit == "rotate":  # positionals after flags
            line[1:] = line[1 + index:] + line[1:1 + index]
        elif flag_indices:
            i = draw(st.sampled_from(flag_indices))
            if edit == "abbreviate":
                line[i] = line[i][:draw(st.integers(2, max(len(line[i]) - 1, 2)))]
            elif edit == "join" and i + 1 < len(line):
                line[i:i + 2] = [f"{line[i]}={line[i + 1]}"]
            elif edit == "repeat":
                line += line[i:i + 2]
            elif edit == "drop_flag":  # a required flag goes missing
                del line[i:i + 2]
    return line


def argparse_result(argv):
    """vars() of argparse's namespace for argv, or None where it exits or errs."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(_build_parser().parse_args(argv))
    except (UsageError, SystemExit):
        return None


def same_values(fast, reference):
    """Equal namespaces, each value of the same type; NaN equals NaN."""
    return fast.keys() == reference.keys() and all(
        type(value) is type(reference[key])
        and (value == reference[key] or value != value and reference[key] != reference[key])
        for key, value in fast.items()
    )


class TestParser:
    @settings(max_examples=200, deadline=None)
    @given(canonical_lines())
    def test_canonical_line_parses_as_argparse_does(self, argv):
        fast = _parse_exact(argv)
        assert fast is not None
        reference = argparse_result(argv)
        assert reference is not None and same_values(vars(fast), reference)

    @settings(max_examples=500, deadline=None)
    @given(other_lines())
    @example(["sweep", "surface", "--ste", "5", "--out", "x.csv"])
    @example(["sweep", "surface", "--from", "-5.", "--out", "x.csv"])
    @example(["probe", "1", "2", "--seed", "-1e3"])
    @example(["sweep", "--out", "x.csv", "surface"])
    @example(["validate", "--"])
    @example(["sweep", "surface"])
    def test_fast_path_agrees_with_argparse_or_defers(self, argv):
        fast = _parse_exact(argv)
        if fast is not None:
            reference = argparse_result(argv)
            assert reference is not None and same_values(vars(fast), reference)

    def test_readme_and_benchmark_lines_take_the_fast_path(self, monkeypatch, tmp_path):
        root = Path(__file__).resolve().parent.parent
        section = (root / "README.md").read_text().split("\n## CLI\n")[1].split("\n## ")[0]
        lines = [shlex.split(line)[1:] for line in section.splitlines()
                 if line.startswith("hardysim ")]
        assert len(lines) >= 8
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", root / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        # only the command lines are wanted, not the 100000-row metrics input
        monkeypatch.setattr(workloads, "generate_metrics_csv", lambda seed, path: path.touch())
        monkeypatch.setattr(workloads, "expected_metrics", lambda text: {"rows": 0})
        lines += [workloads.prepare(name, 1, tmp_path).argv for name in workloads.NAMES]
        for argv in lines:
            assert _parse_exact(argv) is not None, argv

    def test_sweep_help_in_a_fresh_process(self):
        src = str(Path(hardysim.__file__).resolve().parent.parent)
        result = subprocess.run([sys.executable, "-m", "hardysim.cli", "sweep", "--help"],
                                capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == EXIT_OK
        assert any(line.startswith("usage: hardysim sweep") for line in result.stdout.splitlines())

    def test_canonical_line_never_imports_argparse(self):
        src = str(Path(hardysim.__file__).resolve().parent.parent)
        script = ("import io, sys\nfrom hardysim.cli import main\n"
                  "code = main(['validate'], out=io.StringIO())\n"
                  "print(code, 'argparse' in sys.modules)\n")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, check=True)
        assert result.stdout.split() == [str(EXIT_OK), "False"]

    def test_other_spelling_takes_argparse_with_the_same_csv(self, tmp_path):
        outputs = []
        for step in (["--step", "5"], ["--ste", "5"], ["--step=5"]):
            path = tmp_path / f"{len(outputs)}.csv"
            argv = ["sweep", "surface", *step, "--noise", "default", "--shots", "0",
                    "--out", str(path)]
            assert run_cli(argv)[0] == EXIT_OK
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert _parse_exact(["sweep", "surface", "--ste", "5", "--out", "x.csv"]) is None
