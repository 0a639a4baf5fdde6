"""Sweep, metrics, reduced-circuit, and CSV-format tests."""

import math

import numpy as np
import pytest

from hardysim.hardy import HardyParams, StateClass, StateKind, analytic_q
from hardysim.noise import NoiseModel, ShotConfig
from hardysim.sweep import (
    CSV_HEADER,
    SweepCsvError,
    SweepRow,
    diagonal_points,
    diagonal_sweep,
    grid_degrees,
    metric_fluctuation,
    min_established_q,
    peak_offset,
    performance_report,
    q_surface,
    read_csv,
    reduced_circuit_compare,
    rows_to_csv,
    substitute_singular,
    surface_sweep,
    write_csv,
)


def synthetic_row(theta_deg, eps5, q=None, stat_err=0.001, kind=None):
    q = analytic_q(math.radians(theta_deg), math.radians(theta_deg)) if q is None else q
    params = HardyParams.from_degrees(theta_deg, theta_deg)
    if kind is None:
        from hardysim.hardy import classify_state

        cls = classify_state(params)
    else:
        cls = StateClass(kind, 0.5)
    return SweepRow(
        theta_deg=theta_deg,
        phi_deg=theta_deg,
        q_theory=q,
        eps1=0.0,
        eps2=0.0,
        eps3=0.0,
        eps5=eps5,
        stat_err=stat_err,
        state_class=cls,
    )


class TestQSurface:
    def test_peak_on_coarse_grid(self):
        axis = np.arange(0.0, 90.0 + 1e-9, 1.0)
        q = q_surface(axis, axis)
        i, j = np.unravel_index(np.argmax(q), q.shape)
        assert (axis[i], axis[j]) == (52.0, 52.0)
        assert abs(q.max() - 0.09017) < 1e-3

    def test_phi_zero_row_vanishes(self):
        q = q_surface(np.arange(0.0, 91.0, 5.0), [0.0])
        assert np.max(q) <= 1e-12

    def test_symmetric_under_swap(self):
        axis = np.arange(0.0, 91.0, 3.0)
        q = q_surface(axis, axis)
        assert np.max(np.abs(q - q.T)) <= 1e-10

    def test_matches_scalar_analytic_q(self):
        thetas = [10.0, 37.5, 51.827, 80.0]
        phis = [5.0, 45.0, 89.0]
        q = q_surface(thetas, phis)
        for i, t in enumerate(thetas):
            for j, p in enumerate(phis):
                assert abs(q[i, j] - analytic_q(math.radians(t), math.radians(p))) < 1e-14

    def test_full_turn_max_is_q_max(self):
        axis = np.arange(0.0, 360.0 + 1e-9, 1.0)
        q = q_surface(axis, axis)
        assert abs(q.max() - 0.09016994) < 1e-3

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            q_surface([], [1.0])


class TestDiagonalPoints:
    def test_substitution_at_90(self):
        points = diagonal_points(0.0, 90.0, 5.0)
        assert len(points) == 19
        assert points[-1] == 89.99
        assert points[:3] == [0.0, 5.0, 10.0]

    def test_refinement_range(self):
        points = diagonal_points(55.0, 75.0, 1.0)
        assert len(points) == 21
        assert points[0] == 55.0 and points[-1] == 75.0

    def test_substitute_values(self):
        assert substitute_singular(90.0) == 89.99
        assert substitute_singular(270.0) == 269.99
        assert substitute_singular(45.0) == 45.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            grid_degrees(0, 10, 0)
        with pytest.raises(ValueError):
            grid_degrees(10, 0, 1)


class TestDiagonalSweep:
    def test_exact_zero_noise_rows(self):
        rows = diagonal_sweep(diagonal_points(0, 90, 15), NoiseModel.none(), None)
        for row in rows:
            assert abs(row.eps5 - row.q_theory) <= 1e-10
            assert abs(row.eps4_estimated) <= 1e-10
            assert max(row.eps1, row.eps2, row.eps3) <= 1e-10

    def test_sampled_zero_noise_tracks_q(self):
        cfg = ShotConfig(seed=4)
        rows = diagonal_sweep([30.0, 45.0, 51.827], NoiseModel.none(), cfg)
        for row in rows:
            assert abs(row.eps5 - row.q_theory) <= 5 * max(row.stat_err, 1e-4)

    def test_default_noise_positive_eps4(self):
        rows = diagonal_sweep(
            diagonal_points(0, 90, 15), NoiseModel.default_profile(), None
        )
        assert all(row.eps4_estimated > 0 for row in rows)

    def test_rows_keep_sweep_order(self):
        rows = diagonal_sweep([50.0, 10.0, 70.0], NoiseModel.none(), None)
        assert [r.theta_deg for r in rows] == [50.0, 10.0, 70.0]

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            diagonal_sweep([], NoiseModel.none(), None)

    def test_surface_sweep_row_major(self):
        rows = surface_sweep([0.0, 30.0], [0.0, 60.0], NoiseModel.none(), None)
        assert [(r.theta_deg, r.phi_deg) for r in rows] == [
            (0.0, 0.0), (0.0, 60.0), (30.0, 0.0), (30.0, 60.0),
        ]


def floor_sweep(noise, cfg):
    """Diagonal 0..90 in 15-degree steps plus the MES / PS points that set the floor."""
    rows = diagonal_sweep(diagonal_points(0, 90, 15), noise, cfg)
    return rows + surface_sweep([45.0, 90.0], [0.0, 90.0], noise, cfg)


class TestBaseline:
    def test_zero_noise_floor_is_zero(self):
        for cfg in (None, ShotConfig(seed=5)):
            report = performance_report(floor_sweep(NoiseModel.none(), cfg))
            assert report.baseline_source == "rows"
            assert report.baseline <= 1e-12

    def test_default_profile_band(self):
        report = performance_report(floor_sweep(NoiseModel.default_profile(), None))
        assert 0.0 < report.baseline < 0.1

    def test_baseline_points_all_product_or_mes(self):
        # q vanishes on every floor (MES / PS) row, so eps5 there is pure error
        axis = [float(a) for a in np.arange(0.0, 90.0 + 1e-9, 5.0)]
        rows = surface_sweep(axis, axis, NoiseModel.none(), None)
        floor = [r for r in rows if r.state_class.kind is not StateKind.NMES]
        assert {r.state_class.kind for r in floor} == {StateKind.PS, StateKind.MES}
        assert all(r.q_theory <= 1e-12 for r in floor)

    def test_no_floor_rows_leave_baseline_unset(self):
        rows = diagonal_sweep(diagonal_points(40, 60, 2), NoiseModel.default_profile(), None)
        report = performance_report(rows)
        assert report.baseline_source == "none"
        assert report.baseline is None
        assert report.min_distinguishable_q is None
        assert performance_report(rows, baseline=0.05).baseline_source == "flag"

    @pytest.mark.parametrize("baseline", [-1.0, 1.5, math.nan])
    def test_out_of_range_baseline_rejected(self, baseline):
        rows = [synthetic_row(t, 0.05) for t in (40.0, 50.0, 60.0)]
        with pytest.raises(ValueError, match="baseline"):
            performance_report(rows, baseline=baseline)


class TestMinQ:
    def test_zero_noise_floor_allows_smallest_ladder_point(self):
        report = performance_report(floor_sweep(NoiseModel.none(), ShotConfig(seed=6)))
        assert report.min_distinguishable_q is not None
        assert report.min_distinguishable_q <= 0.005

    def test_forced_huge_baseline_gives_none(self):
        rows = floor_sweep(NoiseModel.none(), ShotConfig(seed=6))
        assert performance_report(rows, baseline=1.0).min_distinguishable_q is None

    def test_hardware_scale_boundary(self):
        # entries at real-device scale: error floor 0.0807, NMES points above
        # it pass down to q = 0.0833, the q = 0.0433 rows fall inside the floor
        entries = [
            (0.09017, 0.1281, 0.0039),
            (0.0886, 0.1273, 0.0045),
            (0.0833, 0.1041, 0.0044),
            (0.0433, 0.0832, 0.0052),
            (0.0433, 0.0553, 0.0028),
            (0.00088, 0.067, 0.0038),
            (0.00088, 0.0241, 0.0016),
        ]
        result = min_established_q(entries, baseline=0.0807, k_sigma=3.0)
        assert result == 0.0833

    def test_prefix_rule_stops_at_first_failure(self):
        entries = [(0.09, 0.5, 0.001), (0.05, 0.001, 0.001), (0.01, 0.9, 0.001)]
        assert min_established_q(entries, baseline=0.1, k_sigma=3.0) == 0.09


class TestShiftAndInterval:
    def _rows_with_peak(self, peak_deg, lo=0.0, hi=90.0, step=1.0):
        rows = []
        for t in np.arange(lo, hi + 1e-9, step):
            eps5 = 0.1 * math.exp(-((t - peak_deg) ** 2) / 200.0)
            rows.append(synthetic_row(float(t), eps5))
        return rows

    def test_shift_for_injected_peak_at_40(self):
        assert abs(peak_offset(self._rows_with_peak(40.0))[0] - 11.827) < 1e-9

    def test_shift_for_injected_peak_at_62(self):
        assert abs(peak_offset(self._rows_with_peak(62.0))[0] - 10.173) < 1e-9

    def test_ideal_distribution_sweep_shift_within_step(self):
        rows = diagonal_sweep(diagonal_points(40, 65, 1), NoiseModel.none(), None)
        assert peak_offset(rows)[0] <= 1.0

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            peak_offset(self._rows_with_peak(40.0)[:2])

    def test_tie_flagged_and_takes_smaller_angle(self):
        rows = [synthetic_row(t, eps5) for t, eps5 in ((40.0, 0.2), (50.0, 0.2), (60.0, 0.1))]
        offset, tied, on_boundary = peak_offset(rows)
        assert abs(offset - abs(40.0 - 51.827)) < 1e-9
        assert tied and on_boundary
        assert peak_offset(self._rows_with_peak(40.0))[1:] == (False, False)

    def test_delta_interval_constructed_peak(self):
        report = performance_report(self._rows_with_peak(40.0))
        assert abs(report.peak_offset_deg - 11.827) < 1e-9

    def test_delta_interval_ideal_sweep_within_step(self):
        rows = diagonal_sweep(diagonal_points(40, 65, 1), NoiseModel.none(), None)
        assert performance_report(rows).peak_offset_deg <= 1.0

    def test_delta_interval_boundary_flagged(self):
        report = performance_report(self._rows_with_peak(90.0, lo=40.0, hi=90.0))
        assert report.peak_on_boundary and not report.peak_tied
        assert abs(report.peak_offset_deg - (90.0 - 51.827)) < 1e-9

    def test_delta_interval_requires_coverage(self):
        with pytest.raises(ValueError, match="cover"):
            peak_offset(self._rows_with_peak(10.0, lo=0.0, hi=20.0))


class TestFluctuation:
    def test_constant_rows(self):
        rows = [synthetic_row(t, 0.05, q=0.01) for t in (10.0, 20.0, 30.0)]
        std, spread = metric_fluctuation(rows)
        assert std == 0.0 and spread == 0.0

    def test_exact_zero_noise_rows_flat(self):
        rows = diagonal_sweep(diagonal_points(0, 90, 10), NoiseModel.none(), None)
        std, spread = metric_fluctuation(rows)
        assert std <= 1e-10 and spread <= 1e-10

    def test_sampled_noise_fluctuates(self):
        rows = diagonal_sweep(
            diagonal_points(0, 90, 15), NoiseModel.default_profile(), ShotConfig(seed=7)
        )
        std, spread = metric_fluctuation(rows)
        assert std > 0.0 and spread >= std

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            metric_fluctuation([synthetic_row(10.0, 0.1)])


class TestPerformanceReport:
    def test_report_from_synthetic_sweep(self):
        rows = [synthetic_row(0.0, 0.01)]  # PS row provides the floor
        for t in np.arange(5.0, 90.0, 5.0):
            eps5 = analytic_q(math.radians(t), math.radians(t)) + 0.01
            rows.append(synthetic_row(float(t), eps5, stat_err=0.001))
        report = performance_report(rows)
        assert report.baseline == 0.01 and report.baseline_source == "rows"
        assert report.min_distinguishable_q is not None
        assert report.eps4_fluctuation_range >= report.eps4_fluctuation_std

    def test_explicit_baseline_wins(self):
        rows = [
            synthetic_row(t, eps5)
            for t, eps5 in ((40.0, 0.04), (50.0, 0.06), (60.0, 0.05), (51.0, 0.055))
        ]
        report = performance_report(rows, baseline=0.123)
        assert report.baseline == 0.123 and report.baseline_source == "flag"

    @pytest.mark.parametrize("k_sigma", [0.0, -5.0])
    def test_k_sigma_validation(self, k_sigma):
        rows = [synthetic_row(t, 0.05) for t in (40.0, 50.0, 60.0)]
        with pytest.raises(ValueError, match="k_sigma"):
            performance_report(rows, k_sigma=k_sigma)


class TestReducedCircuit:
    def test_gate_counts(self):
        rc = reduced_circuit_compare("ps_00", NoiseModel.none())
        assert rc.reduced_gate_count < rc.full_gate_count
        assert rc.reduced_gate_count == 3
        assert rc.full_gate_count == 14

    @pytest.mark.parametrize("variant", ["ps_00", "ps_01"])
    def test_zero_noise_both_vanish(self, variant):
        rc = reduced_circuit_compare(variant, NoiseModel.none())
        assert rc.full_eps <= 1e-12
        assert rc.reduced_eps <= 1e-12

    @pytest.mark.parametrize("variant", ["ps_00", "ps_01"])
    def test_two_qubit_noise_orders_errors(self, variant):
        noise = NoiseModel.from_rates(0.0, 0.01, 0.0, 0.0)
        rc = reduced_circuit_compare(variant, noise)
        assert rc.reduced_eps < rc.full_eps

    @pytest.mark.parametrize("variant", ["ps_00", "ps_01"])
    def test_single_qubit_noise_orders_errors(self, variant):
        noise = NoiseModel.from_rates(0.005, 0.0, 0.0, 0.0)
        rc = reduced_circuit_compare(variant, noise)
        assert rc.reduced_eps < rc.full_eps

    @pytest.mark.parametrize("variant", ["ps_00", "ps_01"])
    def test_default_profile_orders_errors(self, variant):
        rc = reduced_circuit_compare(variant, NoiseModel.default_profile())
        assert rc.reduced_eps < rc.full_eps

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            reduced_circuit_compare("ps_11", NoiseModel.none())


class TestCsv:
    def _rows(self):
        return diagonal_sweep([0.0, 30.0, 51.827], NoiseModel.default_profile(), ShotConfig(seed=9))

    def test_header_and_line_endings(self):
        text = rows_to_csv(self._rows())
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert "\r" not in text
        assert text.endswith("\n")

    def test_significant_digits(self):
        text = rows_to_csv([synthetic_row(51.827, 0.123456789, q=0.0901699437)])
        row = text.splitlines()[1].split(",")
        assert row[6] == "0.123456789"
        assert row[2] == "0.0901699437"

    def test_round_trip(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "sweep.csv"
        write_csv(rows, path)
        back = read_csv(path)
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert abs(a.eps5 - b.eps5) < 1e-8
            assert abs(a.q_theory - b.q_theory) < 1e-8
            assert a.state_class.kind is b.state_class.kind

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta,phi\n1,2\n")
        with pytest.raises(SweepCsvError, match="line 1"):
            read_csv(path)

    def test_bad_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n1,2,3\n")
        with pytest.raises(SweepCsvError, match="line 2"):
            read_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = rows_to_csv([synthetic_row(10.0, 0.1)]).splitlines()
        path.write_text(good[0] + "\n" + good[1].replace("10", "ten", 1) + "\n")
        with pytest.raises(SweepCsvError, match="non-numeric"):
            read_csv(path)

    def test_unknown_class(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = rows_to_csv([synthetic_row(10.0, 0.1)]).splitlines()
        path.write_text(good[0] + "\n" + good[1].replace("NMES", "WAT") + "\n")
        with pytest.raises(SweepCsvError, match="unknown class"):
            read_csv(path)

    def test_inconsistent_eps4(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = synthetic_row(10.0, 0.1)
        fields = rows_to_csv([row]).splitlines()
        parts = fields[1].split(",")
        parts[7] = "0.9"
        path.write_text(fields[0] + "\n" + ",".join(parts) + "\n")
        with pytest.raises(SweepCsvError, match="eps4_est"):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n")
        with pytest.raises(SweepCsvError, match="no data rows"):
            read_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SweepCsvError, match="cannot read"):
            read_csv(tmp_path / "nope.csv")
