"""CLI behavior: commands, exit codes, determinism, and the validate suites."""

import io
import math
from pathlib import Path

import pytest

from hardysim.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from hardysim.hardy import analytic_q
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

    def test_negative_shots_is_usage_error(self):
        code, _ = run_cli(["probe", "1", "2", "--shots", "-5"])
        assert code == EXIT_USAGE

    def test_unreadable_noise_file_is_io_error(self, tmp_path):
        code, _ = run_cli(["probe", "1", "2", "--noise", str(tmp_path / "missing.profile")])
        assert code == EXIT_IO

    def test_malformed_noise_file_is_io_error(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("p1=oops\np2=0\nreadout0=0\nreadout1=0\n")
        code, _ = run_cli(["probe", "1", "2", "--noise", str(path)])
        assert code == EXIT_IO

    def test_malformed_csv_is_io_error_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n1,2,3\n")
        code, _ = run_cli(["metrics", "--in", str(path)])
        assert code == EXIT_IO
        assert "line 2" in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self, tmp_path):
        code, _ = run_cli(
            ["sweep", "diagonal", "--step", "45", "--shots", "0",
             "--out", str(tmp_path / "no" / "dir" / "x.csv")]
        )
        assert code == EXIT_IO

    def test_non_finite_angle_is_usage_error(self):
        code, _ = run_cli(["probe", "inf", "2"])
        assert code == EXIT_USAGE

    def test_inverted_range_is_usage_error(self, tmp_path):
        code, _ = run_cli(
            ["sweep", "diagonal", "--from", "50", "--to", "10", "--step", "5",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_USAGE

    def test_metrics_on_two_rows_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text(
            CSV_HEADER + "\n40,40,0.02,0,0,0,0.05,0.03,0.001,NMES\n"
            "50,50,0.08,0,0,0,0.1,0.02,0.001,NMES\n"
        )
        code, _ = run_cli(["metrics", "--in", str(path)])
        assert code == EXIT_IO
        assert "at least 3 rows" in capsys.readouterr().err


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
        err = capsys.readouterr().err
        assert "line 4" in err and message in err


class TestGoldenOutputs:
    """CSV bytes must match files saved from the per-gate Kraus implementation."""

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("surface_15deg_exact_default.csv",
             ["sweep", "surface", "--from", "0", "--to", "90", "--step", "15",
              "--noise", "default", "--shots", "0"]),
            ("diagonal_5deg_sampled_default_seed7.csv",
             ["sweep", "diagonal", "--from", "0", "--to", "90", "--step", "5",
              "--noise", "default", "--seed", "7"]),
        ],
    )
    def test_csv_matches_golden(self, tmp_path, name, argv):
        out = tmp_path / name
        assert run_cli([*argv, "--out", str(out)])[0] == EXIT_OK
        assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


class TestSweepCommand:
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

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "diagonal", "--from", "0", "--to", "90", "--step", "15",
                "--noise", "default", "--seed", "42", "--out"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + [str(a)])[0] == EXIT_OK
        assert run_cli(args + [str(b)])[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

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


class TestValidateCommand:
    def test_fresh_build_passes(self):
        code, text = run_cli(["validate"])
        assert code == EXIT_OK
        suites = [line for line in text.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert len(suites) >= 6
        assert all(line.startswith("PASS") for line in suites)

    def test_corrupted_lambda_binding_fails_coupling_suite(self):
        results = {name: ok for name, ok, _ in run_validation_suites(coupling_lambda_scale=1.02)}
        assert results["coupling-decomposition"] is False
        assert results["beam-splitter-anchor"] is True

    def test_validation_exit_code_path(self, monkeypatch):
        import hardysim.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "run_validation_suites", lambda: [("stub-suite", False, "forced")]
        )
        code, text = run_cli(["validate"])
        assert code == EXIT_VALIDATION
        assert "FAIL stub-suite" in text
