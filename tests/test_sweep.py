"""Sweep, metrics, reduced-circuit, and CSV-format tests."""

import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardysim import sweep
from hardysim.cli import EXIT_IO, EXIT_OK, main
from hardysim.hardy import CLASSES, analytic_q, classify
from hardysim.noise import NoiseModel, ShotConfig
from hardysim.sweep import (
    CSV_HEADER,
    SweepCsvError,
    SweepTable,
    diagonal_points,
    diagonal_sweep,
    grid_degrees,
    ladder_verdict,
    metric_fluctuation,
    peak_offset,
    performance_report,
    read_csv,
    reduced_circuit_compare,
    rows_to_csv,
    substitute_singular,
    surface_sweep,
    write_csv,
)


def synthetic_row(theta_deg, eps5, q=None, stat_err=0.001):
    """(theta_deg, q, eps5, stat_err, class) of a diagonal point with zero eps1..eps3."""
    angle = math.radians(theta_deg)
    q = analytic_q(angle, angle) if q is None else q
    return theta_deg, q, eps5, stat_err, str(classify(angle, angle))


def table_of(rows) -> SweepTable:
    """SweepTable of synthetic rows."""
    theta, q, eps5, stat_err, kind = (np.array(column) for column in zip(*rows))
    zeros = np.zeros(len(theta))
    return SweepTable(theta, theta, q, np.column_stack([zeros, zeros, zeros, eps5]),
                      stat_err, kind)


def concat(*tables) -> SweepTable:
    """The rows of several tables, one after the other."""
    return SweepTable(*(
        np.concatenate([getattr(t, field.name) for t in tables])
        for field in dataclasses.fields(SweepTable)
    ))


def edit_line(index, change):
    """Text edit applying change to line `index` (0 is the header) of LF-ended CSV text."""
    def edit(text):
        lines = text.split("\n")
        lines[index] = change(lines[index])
        return "\n".join(lines)
    return edit


def set_field(column, value):
    """Line edit replacing the field at `column` with value."""
    def change(line):
        fields = line.split(",")
        fields[column] = value
        return ",".join(fields)
    return change


def nine_digits(values):
    """The float each value reads back as after the writer's .9g formatting."""
    return np.array([float(format(v, ".9g")) for v in np.ravel(values).tolist()])


def reference_ladder(q, eps5, stat_err, baseline, k_sigma):
    """(passed, length, stop_q, min_q) of the ladder walked in stable-sorted order."""
    q, eps5, stat_err = (np.asarray(a, dtype=np.float64) for a in (q, eps5, stat_err))
    order = np.argsort(-q, kind="stable")
    passed = np.logical_and.accumulate(eps5[order] - k_sigma * stat_err[order] > baseline)
    count = int(np.count_nonzero(passed))
    stop_q = float(q[order[count]]) if count < q.size else None
    min_q = float(q[order[count - 1]]) if count else None
    return count, q.size, stop_q, min_q


# Cells that make a data line bad, each in its own way, in a number column
# or in the class column.
BAD_NUMBERS = ["x", "", "1_0", "1.5", "-0.5", "nan", "inf", "0.5\0", "1,2", '"0.5', '1"',
               '"0."5"', '"a""b"']
BAD_CLASSES = ["", "WAT", "NMES ", "NMESNMES", "NMES\0", '"NMES', '"NMES"x']


@st.composite
def csv_texts(draw):
    """A sweep CSV of valid rows with random quoting, line endings and blank
    lines, and at most one data cell replaced by a bad one."""
    thetas = draw(st.lists(st.sampled_from([0.0, 10.0, 45.0, 51.827, 89.0]),
                           min_size=1, max_size=5))
    text = rows_to_csv(table_of(synthetic_row(t, 0.1) for t in thetas))
    cells = [line.split(",") for line in text.splitlines()]
    if draw(st.booleans()):
        row = len(thetas) - draw(st.integers(0, len(thetas) - 1))  # the last row first
        if draw(st.booleans()):
            cells[row][9] = draw(st.sampled_from(BAD_CLASSES))
        else:
            cells[row][draw(st.integers(0, 8))] = draw(st.sampled_from(BAD_NUMBERS))
    lines = [",".join(f'"{cell}"' if draw(st.booleans()) else cell for cell in row)
             for row in cells]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


def per_line_outcome(path):
    """(rows, None) when each data line of the file, parsed on its own, passes
    the row checks, else (None, number of the earliest line that does not)."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    assert sweep._fields(lines[0]) == sweep._HEADER_FIELDS
    rows = []
    for number, line in enumerate(lines[1:], 2):
        if line:
            parsed = sweep._parse([line])
            if parsed is None or sweep._check_rows(parsed["values"], parsed["kind"]):
                return None, number
            rows.append(parsed)
    return np.concatenate(rows), None


def q_grid(theta_deg, phi_deg):
    """analytic_q on the outer grid of two degree axes; entry [i, j] is (theta[i], phi[j])."""
    theta = np.radians(np.asarray(theta_deg, dtype=float))
    phi = np.radians(np.asarray(phi_deg, dtype=float))
    return analytic_q(theta[:, None], phi[None, :])


class TestQSurface:
    def test_peak_on_coarse_grid(self):
        axis = np.arange(0.0, 90.0 + 1e-9, 1.0)
        q = q_grid(axis, axis)
        i, j = np.unravel_index(np.argmax(q), q.shape)
        assert (axis[i], axis[j]) == (52.0, 52.0)
        assert abs(q.max() - 0.09017) < 1e-3

    def test_phi_zero_row_vanishes(self):
        q = q_grid(np.arange(0.0, 91.0, 5.0), [0.0])
        assert np.max(q) <= 1e-12

    def test_symmetric_under_swap(self):
        axis = np.arange(0.0, 91.0, 3.0)
        q = q_grid(axis, axis)
        assert np.max(np.abs(q - q.T)) <= 1e-10

    def test_full_turn_max_is_q_max(self):
        axis = np.arange(0.0, 360.0 + 1e-9, 1.0)
        q = q_grid(axis, axis)
        assert abs(q.max() - 0.09016994) < 1e-3

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            surface_sweep([], [1.0], NoiseModel.none(), None)


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

    def test_grid_never_passes_stop(self):
        assert grid_degrees(0, 1, 0.6).tolist() == [0.0, 0.6, 1.0]
        for start, stop, step in [(0, 90, 0.7), (0, 90, 5), (0, 0.3, 0.1), (10, 11, 0.35)]:
            points = grid_degrees(start, stop, step)
            assert points[0] == start
            assert points[-1] == pytest.approx(stop, abs=1e-12)
            assert np.all(np.diff(points) > 0) and np.all(np.diff(points) <= step + 1e-12)
        assert len(grid_degrees(0, 90, 5)) == 19
        assert len(grid_degrees(0, 90, 0.25)) == 361

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            grid_degrees(0, 10, 0)
        with pytest.raises(ValueError):
            grid_degrees(10, 0, 1)


class TestDiagonalSweep:
    def test_exact_zero_noise_rows(self):
        table = diagonal_sweep(diagonal_points(0, 90, 15), NoiseModel.none(), None)
        assert len(table) == 7
        assert np.max(np.abs(table.eps5 - table.q)) <= 1e-10
        assert np.max(np.abs(table.eps4_est)) <= 1e-10
        assert np.max(table.eps[:, :3]) <= 1e-10

    def test_sampled_zero_noise_tracks_q(self):
        cfg = ShotConfig(seed=4)
        table = diagonal_sweep([30.0, 45.0, 51.827], NoiseModel.none(), cfg)
        assert np.all(np.abs(table.eps5 - table.q) <= 5 * np.maximum(table.stat_err, 1e-4))

    def test_default_noise_positive_eps4(self):
        table = diagonal_sweep(
            diagonal_points(0, 90, 15), NoiseModel.default_profile(), None
        )
        assert np.all(table.eps4_est > 0)

    def test_rows_keep_sweep_order(self):
        table = diagonal_sweep([50.0, 10.0, 70.0], NoiseModel.none(), None)
        assert table.theta_deg.tolist() == [50.0, 10.0, 70.0]

    def test_one_generator_per_sampled_sweep(self, monkeypatch):
        default_rng, built = np.random.default_rng, []

        def counting(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        points = diagonal_points(0, 90, 0.25)
        table = diagonal_sweep(points, NoiseModel.default_profile(), ShotConfig(seed=3))
        assert len(table) == 361
        assert built == [(3,)]

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            diagonal_sweep([], NoiseModel.none(), None)

    def test_surface_sweep_row_major(self):
        table = surface_sweep([0.0, 30.0], [0.0, 60.0], NoiseModel.none(), None)
        assert list(zip(table.theta_deg.tolist(), table.phi_deg.tolist())) == [
            (0.0, 0.0), (0.0, 60.0), (30.0, 0.0), (30.0, 60.0),
        ]
        assert table.kind.tolist() == ["PS", "PS", "PS", "NMES"]


def floor_sweep(noise, cfg):
    """Diagonal 0..90 in 15-degree steps plus the MES / PS points that set the floor."""
    return concat(
        diagonal_sweep(diagonal_points(0, 90, 15), noise, cfg),
        surface_sweep([45.0, 90.0], [0.0, 90.0], noise, cfg),
    )


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
        table = surface_sweep(axis, axis, NoiseModel.none(), None)
        floor = table.kind != "NMES"
        assert set(table.kind[floor].tolist()) == {"PS", "MES"}
        assert np.all(table.q[floor] <= 1e-12)

    def test_no_floor_rows_leave_baseline_unset(self):
        table = diagonal_sweep(diagonal_points(40, 60, 2), NoiseModel.default_profile(), None)
        report = performance_report(table)
        assert report.baseline_source == "none"
        assert report.baseline is None
        assert report.ladder is None
        assert performance_report(table, baseline=0.05).baseline_source == "flag"

    @pytest.mark.parametrize("baseline", [-1.0, 1.5, math.nan])
    def test_out_of_range_baseline_rejected(self, baseline):
        table = table_of(synthetic_row(t, 0.05) for t in (40.0, 50.0, 60.0))
        with pytest.raises(ValueError, match="baseline"):
            performance_report(table, baseline=baseline)


class TestMinQ:
    def test_zero_noise_floor_allows_smallest_ladder_point(self):
        report = performance_report(floor_sweep(NoiseModel.none(), ShotConfig(seed=6)))
        assert report.ladder.min_q is not None
        assert report.ladder.min_q <= 0.005

    def test_forced_huge_baseline_gives_none(self):
        table = floor_sweep(NoiseModel.none(), ShotConfig(seed=6))
        assert performance_report(table, baseline=1.0).ladder.min_q is None

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
        verdict = ladder_verdict(*np.array(entries).T, baseline=0.0807, k_sigma=3.0)
        assert verdict.min_q == 0.0833

    def test_prefix_rule_stops_at_first_failure(self):
        entries = [(0.09, 0.5, 0.001), (0.05, 0.001, 0.001), (0.01, 0.9, 0.001)]
        assert ladder_verdict(*np.array(entries).T, baseline=0.1, k_sigma=3.0).min_q == 0.09

    def test_ladder_ties_keep_given_order(self):
        # equal q: the first failing entry in the given order ends the ladder
        q, eps5 = [0.09, 0.05, 0.05, 0.01], [0.5, 0.5, 0.001, 0.9]
        assert ladder_verdict(q, eps5, [0.001] * 4, baseline=0.1, k_sigma=3.0).min_q == 0.05
        assert ladder_verdict([], [], [], baseline=0.1, k_sigma=3.0).min_q is None

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                # few distinct q (signed zeros among them) so ties are common
                st.one_of(st.sampled_from([0.0, -0.0, 0.01, 0.05, 0.09]),
                          st.floats(0.0, 1.0)),
                st.floats(0.0, 1.0),
                st.floats(0.0, 0.1),
            ),
            max_size=40,
        ),
        st.floats(0.0, 1.0),
        st.floats(0.1, 5.0),
    )
    @example([], 0.1, 3.0)  # empty ladder
    @example([(0.09, 0.9, 0.0), (0.05, 0.9, 0.0), (0.05, 0.9, 0.0)], 0.1, 3.0)  # all pass
    @example([(0.09, 0.0, 0.0), (0.05, 0.9, 0.0), (0.09, 0.9, 0.0)], 0.1, 3.0)  # first fails
    def test_sort_free_ladder_matches_sorted_walk(self, points, baseline, k_sigma):
        q, eps5, stat_err = np.array(points, dtype=float).reshape(-1, 3).T
        verdict = ladder_verdict(q, eps5, stat_err, baseline, k_sigma)
        reference = reference_ladder(q, eps5, stat_err, baseline, k_sigma)
        # repr tells -0.0 from 0.0: the same rung, not only an equal q
        assert repr(dataclasses.astuple(verdict)) == repr(reference)


class TestShiftAndInterval:
    def _rows_with_peak(self, peak_deg, lo=0.0, hi=90.0, step=1.0):
        rows = []
        for t in np.arange(lo, hi + 1e-9, step):
            eps5 = 0.1 * math.exp(-((t - peak_deg) ** 2) / 200.0)
            rows.append(synthetic_row(float(t), eps5))
        return table_of(rows)

    def test_shift_for_injected_peak_at_40(self):
        assert abs(peak_offset(self._rows_with_peak(40.0))[0] - 11.827) < 1e-9

    def test_shift_for_injected_peak_at_62(self):
        assert abs(peak_offset(self._rows_with_peak(62.0))[0] - 10.173) < 1e-9

    def test_ideal_distribution_sweep_shift_within_step(self):
        table = diagonal_sweep(diagonal_points(40, 65, 1), NoiseModel.none(), None)
        assert peak_offset(table)[0] <= 1.0

    def test_too_few_rows(self):
        rows = [synthetic_row(t, 0.1) for t in (40.0, 50.0)]
        with pytest.raises(ValueError):
            peak_offset(table_of(rows))

    def test_tie_flagged_and_takes_smaller_angle(self):
        rows = [synthetic_row(t, eps5) for t, eps5 in ((40.0, 0.2), (50.0, 0.2), (60.0, 0.1))]
        offset, tied, on_boundary = peak_offset(table_of(rows))
        assert abs(offset - abs(40.0 - 51.827)) < 1e-9
        assert tied and on_boundary
        assert peak_offset(self._rows_with_peak(40.0))[1:] == (False, False)

    def test_delta_interval_constructed_peak(self):
        report = performance_report(self._rows_with_peak(40.0))
        assert abs(report.peak_offset_deg - 11.827) < 1e-9

    def test_delta_interval_ideal_sweep_within_step(self):
        table = diagonal_sweep(diagonal_points(40, 65, 1), NoiseModel.none(), None)
        assert performance_report(table).peak_offset_deg <= 1.0

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
        std, spread = metric_fluctuation(table_of(rows))
        assert std == 0.0 and spread == 0.0

    def test_exact_zero_noise_rows_flat(self):
        table = diagonal_sweep(diagonal_points(0, 90, 10), NoiseModel.none(), None)
        std, spread = metric_fluctuation(table)
        assert std <= 1e-10 and spread <= 1e-10

    def test_sampled_noise_fluctuates(self):
        table = diagonal_sweep(
            diagonal_points(0, 90, 15), NoiseModel.default_profile(), ShotConfig(seed=7)
        )
        std, spread = metric_fluctuation(table)
        assert std > 0.0 and spread >= std

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            metric_fluctuation(table_of([synthetic_row(10.0, 0.1)]))


class TestPerformanceReport:
    def test_report_from_synthetic_sweep(self):
        rows = [synthetic_row(0.0, 0.01)]  # PS row provides the floor
        for t in np.arange(5.0, 90.0, 5.0):
            eps5 = analytic_q(math.radians(t), math.radians(t)) + 0.01
            rows.append(synthetic_row(float(t), eps5, stat_err=0.001))
        report = performance_report(table_of(rows))
        assert report.baseline == 0.01 and report.baseline_source == "rows"
        assert report.ladder.min_q is not None
        assert report.eps4_fluctuation_range >= report.eps4_fluctuation_std

    def test_explicit_baseline_wins(self):
        rows = [
            synthetic_row(t, eps5)
            for t, eps5 in ((40.0, 0.04), (50.0, 0.06), (60.0, 0.05), (51.0, 0.055))
        ]
        report = performance_report(table_of(rows), baseline=0.123)
        assert report.baseline == 0.123 and report.baseline_source == "flag"

    @pytest.mark.parametrize("k_sigma", [0.0, -5.0])
    def test_k_sigma_validation(self, k_sigma):
        table = table_of(synthetic_row(t, 0.05) for t in (40.0, 50.0, 60.0))
        with pytest.raises(ValueError, match="k_sigma"):
            performance_report(table, k_sigma=k_sigma)


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
        noise = NoiseModel(0.0, 0.01, 0.0, 0.0)
        rc = reduced_circuit_compare(variant, noise)
        assert rc.reduced_eps < rc.full_eps

    @pytest.mark.parametrize("variant", ["ps_00", "ps_01"])
    def test_single_qubit_noise_orders_errors(self, variant):
        noise = NoiseModel(0.005, 0.0, 0.0, 0.0)
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
        text = rows_to_csv(table_of([synthetic_row(51.827, 0.123456789, q=0.0901699437)]))
        row = text.splitlines()[1].split(",")
        assert row[6] == "0.123456789"
        assert row[2] == "0.0901699437"

    def test_round_trip(self, tmp_path):
        table = self._rows()
        path = tmp_path / "sweep.csv"
        write_csv(table, path)
        back = read_csv(path)
        assert len(back) == len(table)
        assert np.max(np.abs(table.eps - back.eps)) < 1e-8
        assert np.max(np.abs(table.q - back.q)) < 1e-8
        assert np.max(np.abs(table.stat_err - back.stat_err)) < 1e-8
        assert back.kind.tolist() == table.kind.tolist()

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
        good = rows_to_csv(table_of([synthetic_row(10.0, 0.1)])).splitlines()
        path.write_text(good[0] + "\n" + good[1].replace("10", "ten", 1) + "\n")
        with pytest.raises(SweepCsvError, match="non-numeric"):
            read_csv(path)

    def test_unknown_class(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = rows_to_csv(table_of([synthetic_row(10.0, 0.1)])).splitlines()
        path.write_text(good[0] + "\n" + good[1].replace("NMES", "WAT") + "\n")
        with pytest.raises(SweepCsvError, match="unknown class"):
            read_csv(path)

    def test_inconsistent_eps4(self, tmp_path):
        path = tmp_path / "bad.csv"
        fields = rows_to_csv(table_of([synthetic_row(10.0, 0.1)])).splitlines()
        parts = fields[1].split(",")
        parts[7] = "0.9"
        path.write_text(fields[0] + "\n" + ",".join(parts) + "\n")
        with pytest.raises(SweepCsvError, match="eps4_est"):
            read_csv(path)

    def test_earliest_bad_line_reported(self, tmp_path):
        # line 3 has an out-of-range q_theory, line 5 a wrong field count
        table = table_of(synthetic_row(t, 0.1) for t in (10.0, 20.0, 30.0))
        lines = rows_to_csv(table).splitlines()
        fields = lines[2].split(",")
        fields[2] = "1.5"
        lines[2] = ",".join(fields)
        lines.append("1,2,3")
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SweepCsvError, match="line 3: q_theory=1.5 outside"):
            read_csv(path)

    def test_blank_line_counts_toward_line_number(self, tmp_path):
        lines = rows_to_csv(table_of(synthetic_row(t, 0.1) for t in (10.0, 20.0))).splitlines()
        lines[2] = lines[2].replace("NMES", "WAT")
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([lines[0], lines[1], "", lines[2]]) + "\n")
        with pytest.raises(SweepCsvError, match="line 4: unknown class 'WAT'"):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n")
        with pytest.raises(SweepCsvError, match="no data rows"):
            read_csv(path)

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(CSV_HEADER.encode() + b"\n1,1,0,0,0,0,0,0,0,P\xffS\n")
        with pytest.raises(SweepCsvError, match="cannot read"):
            read_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SweepCsvError, match="cannot read"):
            read_csv(tmp_path / "nope.csv")

    # Input forms that numpy's tokenizer could read differently from the
    # csv module.  Each gives the outcome the csv-module reader gave: the
    # same table, or the same exit code, line and message prefix.
    PARITY_CASES = {
        "as_written": (lambda text: text, None),
        "crlf_endings": (lambda text: text.replace("\n", "\r\n"), None),
        "mixed_endings_trailing_blank_lines": (
            lambda text: text.replace("\n", "\r\n", 3) + "\n\n", None),
        "cr_endings": (lambda text: text.replace("\n", "\r"), None),
        "quoted_fields": (lambda text: re.sub(r"[^,\n]+", r'"\g<0>"', text), None),
        "hash_is_no_comment": (edit_line(2, lambda line: "#" + line),
                               (3, "non-numeric field (")),
        "whitespace_only_line": (edit_line(2, lambda line: " \t"),
                                 (3, "expected 10 fields, got 1")),
        "trailing_comma": (edit_line(2, lambda line: line + ","),
                           (3, "expected 10 fields, got 11")),
        "empty_numeric_field": (edit_line(2, set_field(0, "")), (3, "non-numeric field (")),
        "class_trailing_space": (edit_line(2, set_field(9, "NMES ")),
                                 (3, "unknown class 'NMES '")),
        "form_feed_stays_in_class": (edit_line(2, set_field(9, "NMES\x0c")),
                                     (3, "unknown class 'NMES\\x0c'")),
        "header_without_newline": (lambda text: CSV_HEADER, (1, "no data rows")),
        "header_then_blank_lines": (lambda text: CSV_HEADER + "\n\n\r\n\r",
                                    (1, "no data rows")),
        "empty_file": (lambda text: "", (1, "no data rows")),
        "quoted_class_fields": (lambda text: re.sub(r",(\w+)\n", r',"\1"\n', text), None),
        # a U5 field would drop the NUL and read a known class
        "nul_ends_class": (edit_line(2, set_field(9, "NMES\0")),
                           (3, "unknown class 'NMES\\x00'")),
        "long_class": (edit_line(2, set_field(9, "NMESNMES")),
                       (3, "unknown class 'NMESNMES'")),
    }

    @pytest.mark.parametrize("case", PARITY_CASES)
    def test_input_form_parity(self, tmp_path, case):
        edit, expected = self.PARITY_CASES[case]
        plain = rows_to_csv(table_of(synthetic_row(t, 0.1) for t in (40.0, 51.827, 60.0)))
        path, plain_path = tmp_path / "in.csv", tmp_path / "plain.csv"
        path.write_bytes(edit(plain).encode("utf-8"))
        plain_path.write_bytes(plain.encode("utf-8"))
        code = main(["metrics", "--in", str(path)], out=io.StringIO())
        if expected is None:
            back, reference = read_csv(path), read_csv(plain_path)
            for field in dataclasses.fields(SweepTable):
                np.testing.assert_array_equal(getattr(back, field.name),
                                              getattr(reference, field.name))
            assert code == EXIT_OK
            return
        line, prefix = expected
        with pytest.raises(SweepCsvError) as info:
            read_csv(path)
        assert info.value.line == line
        assert str(info.value).startswith(f"line {line}: {prefix}")
        assert code == EXIT_IO

    def test_digit_separator_is_non_numeric(self, tmp_path):
        # float() reads "1_0" as 10; numpy's float syntax has no separators
        path = tmp_path / "bad.csv"
        text = rows_to_csv(table_of(synthetic_row(t, 0.1) for t in (10.0, 20.0)))
        path.write_text(edit_line(2, set_field(0, "1_0"))(text))
        with pytest.raises(SweepCsvError,
                           match=re.escape("line 3: non-numeric field (could not convert "
                                           "string to float: '1_0')")):
            read_csv(path)

    def test_quoted_field_must_close_on_its_line(self, tmp_path):
        # the quote would otherwise swallow line 4 into line 3's class field
        path = tmp_path / "bad.csv"
        text = rows_to_csv(table_of(synthetic_row(t, 0.1) for t in (10.0, 20.0, 30.0)))
        path.write_text(edit_line(2, set_field(9, '"NMES'))(text))
        with pytest.raises(SweepCsvError, match="line 3: quoted field not closed on its line"):
            read_csv(path)
        # the header's fields read right, but its last one would swallow line 2
        path.write_text(edit_line(0, set_field(9, '"class'))(text))
        with pytest.raises(SweepCsvError, match="line 1: quoted field not closed on its line"):
            read_csv(path)

    def test_quote_cannot_join_two_lines(self, tmp_path):
        # lines 3 and 4 read as one valid row when tokenized together
        # ('..."0.5\n",NMES'), which one whole-file call would accept
        lines = rows_to_csv(table_of(synthetic_row(t, 0.1) for t in (10.0, 20.0, 30.0)))
        lines = lines.split("\n")
        lines[2:3] = [",".join(lines[2].split(",")[:8] + ['"0.5']), '",NMES']
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines))
        with open(path, encoding="utf-8") as handle:
            assert len(sweep._loadtxt(handle, sweep._ROW_DTYPE, skiprows=1)) == 3
        with pytest.raises(SweepCsvError,
                           match=re.escape("line 3: expected 10 fields, got 9")):
            read_csv(path)

    @pytest.mark.parametrize(
        "case", [case for case, (_, expected) in PARITY_CASES.items() if expected is None]
    )
    def test_written_file_is_one_tokenizer_call(self, tmp_path, monkeypatch, case):
        edit = self.PARITY_CASES[case][0]
        table = table_of(synthetic_row(t, 0.1) for t in (0.0, 40.0, 51.827, 60.0))
        path = tmp_path / "sweep.csv"
        path.write_bytes(edit(rows_to_csv(table)).encode("utf-8"))

        def diagnose(path):
            raise AssertionError("diagnoser used")

        monkeypatch.setattr(sweep, "_diagnose", diagnose)
        back = read_csv(path)
        assert back.kind.tolist() == table.kind.tolist()
        np.testing.assert_array_equal(back.q, nine_digits(table.q))

    def test_unclosed_quote_on_unterminated_last_line(self, tmp_path):
        # one tokenizer call alone would read the class as NMES
        path = tmp_path / "bad.csv"
        text = rows_to_csv(table_of(synthetic_row(t, 0.1) for t in (10.0, 20.0, 30.0)))
        path.write_text(edit_line(3, set_field(9, '"NMES'))(text).rstrip("\n"))
        with open(path, encoding="utf-8") as handle:
            rows = sweep._loadtxt(handle, sweep._ROW_DTYPE, skiprows=1)
        assert rows["kind"].tolist() == ["NMES"] * 3
        with pytest.raises(SweepCsvError,
                           match="^line 4: quoted field not closed on its line$"):
            read_csv(path)

    def test_non_numeric_line_before_out_of_range_line(self, tmp_path):
        table = table_of(synthetic_row(t, 0.1) for t in (10.0, 20.0, 30.0, 40.0))
        text = edit_line(2, set_field(0, "ten"))(rows_to_csv(table))
        text = edit_line(4, set_field(3, "1.5"))(text)
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(SweepCsvError, match="line 3: non-numeric field"):
            read_csv(path)

    def test_earliest_bad_line_in_a_long_file(self, tmp_path):
        # many bisection steps to the bad last line
        rows = 8292
        table = table_of(synthetic_row(t, 0.1) for t in np.linspace(1.0, 89.0, rows))
        lines = rows_to_csv(table).splitlines()
        lines[-1] = "1,2,3"
        lines.insert(rows // 2, "")  # blank lines count toward line numbers
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SweepCsvError, match=f"line {rows + 2}: expected 10 fields, got 3"):
            read_csv(path)
        lines[2] = set_field(2, "1.5")(lines[2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SweepCsvError, match="line 3: q_theory=1.5 outside"):
            read_csv(path)

    # the bisection in _first_bad takes a different path for each number of
    # data lines: one (no step), two, an odd count and a power of two
    @pytest.mark.parametrize("rows", [1, 2, 5, 8])
    @pytest.mark.parametrize("fault,message", [
        (set_field(4, "x"), "non-numeric field (could not convert string to float: 'x')"),
        (lambda line: line + ",1", "expected 10 fields, got 11"),
        (set_field(9, '"NMES'), "quoted field not closed on its line"),
    ])
    def test_bad_line_found_at_every_position(self, tmp_path, rows, fault, message):
        table = table_of(synthetic_row(t, 0.1) for t in range(10, 10 + 10 * rows, 10))
        clean = rows_to_csv(table).split("\n")
        clean.insert(4, "")  # with 8 rows: data lines 2-4, a blank line 5, data lines 6-10
        path = tmp_path / "bad.csv"
        for index, line in enumerate(clean):
            if index == 0 or not line:
                continue
            lines = list(clean)
            lines[index] = fault(line)
            path.write_text("\n".join(lines))
            with pytest.raises(SweepCsvError) as info:
                read_csv(path)
            assert str(info.value) == f"line {index + 1}: {message}"

    @settings(max_examples=300, deadline=None)
    @given(csv_texts())
    def test_one_call_matches_per_line_parse(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("per_line") / "sweep.csv"
        path.write_bytes(text.encode("utf-8"))
        rows, bad_line = per_line_outcome(path)
        if bad_line is not None:
            with pytest.raises(SweepCsvError) as info:
                read_csv(path)
            assert info.value.line == bad_line
            return
        back = read_csv(path)
        np.testing.assert_array_equal(back.theta_deg, rows["values"][:, 0])
        np.testing.assert_array_equal(back.phi_deg, rows["values"][:, 1])
        np.testing.assert_array_equal(back.q, rows["values"][:, 2])
        np.testing.assert_array_equal(back.eps, rows["values"][:, 3:7])
        np.testing.assert_array_equal(back.stat_err, rows["values"][:, 8])
        assert back.kind.tolist() == rows["kind"].tolist()

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308]),
                 max_size=20),
    )
    @example(3, 0, [0.0, 1.0, 5e-324])
    def test_round_trip_is_exact_at_nine_digits(self, tmp_path_factory, rows, seed, specials):
        rng = np.random.default_rng(seed)
        values = rng.random((rows, 8))
        for value in specials:
            values[rng.integers(rows), rng.integers(8)] = value
        kind = np.array(CLASSES)[rng.integers(len(CLASSES), size=rows)]
        table = SweepTable(values[:, 0], values[:, 1], values[:, 2], values[:, 3:7],
                           values[:, 7], kind)
        path = tmp_path_factory.mktemp("round_trip") / "sweep.csv"
        write_csv(table, path)
        back = read_csv(path)
        for name in ("theta_deg", "phi_deg", "q", "eps", "stat_err"):
            np.testing.assert_array_equal(np.ravel(getattr(back, name)),
                                          nine_digits(getattr(table, name)))
        assert back.kind.tolist() == kind.tolist()
        assert back.kind.dtype == kind.dtype
