"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import math

import numpy as np
import pytest

import kraus_reference as ref
from hardysim.cli import EXIT_OK, main
from hardysim.engine import (
    FLAGGED_OUTCOME,
    evolve,
    experiment_distributions,
    ground_state,
    preparation_steps,
    steps_unitary,
)
from hardysim.hardy import (
    HardyParams,
    StateKind,
    analytic_q,
    classify_state,
    optimal_angles,
    q_max,
)
from hardysim.noise import (
    NoiseModel,
    ShotConfig,
    estimate_batch,
    measure_epsilons,
    statistical_error,
)
from hardysim.sweep import CSV_HEADER, q_surface, reduced_circuit_compare
from hardysim import gates

DEG = math.radians


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_c01_q_max():
    exact = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
    at_angles = analytic_q(DEG(51.827), DEG(51.827))
    assert abs(at_angles - exact) < 1e-4
    assert abs(q_max() - exact) < 1e-15
    assert abs(at_angles - 0.0901699) < 1e-4
    report(1, f"q_max = {q_max():.7f}, analytic at 51.827 deg = {at_angles:.7f}")


TABLE_Q = [
    (45, 90, 0.0, 1e-4),
    (0, 0, 0.0, 1e-4),
    (90, 0, 0.0, 1e-4),
    (45, 0, 0.0, 1e-4),
    (90, 45, 0.0, 1e-4),
    (45, 45, 0.0833, 1e-4),
    (55, 55, 0.0886, 1e-4),
    (30, 60, 0.0433, 1e-4),
    (60, 30, 0.0433, 1e-4),
    (10, 80, 0.00088, 5e-5),
    (80, 10, 0.00088, 5e-5),
]


def test_c02_theoretical_q_column():
    for theta_deg, phi_deg, expect, tol in TABLE_Q:
        got = analytic_q(DEG(theta_deg), DEG(phi_deg))
        assert abs(got - expect) < tol, (theta_deg, phi_deg, got)
    report(2, f"{len(TABLE_Q)} known q values reproduced")


def test_c03_hardy_equations_on_grid():
    worst_zero = 0.0
    worst_diff = 0.0
    phi = np.radians(np.arange(181.0))
    for theta_deg in range(181):  # one engine batch per theta row
        theta = np.full_like(phi, math.radians(theta_deg))
        dists = experiment_distributions(theta, phi, NoiseModel.none())
        flagged = dists[:, range(4), FLAGGED_OUTCOME]
        worst_zero = max(worst_zero, float(np.max(flagged[:, :3])))
        for t, p, q in zip(theta, phi, flagged[:, 3]):
            worst_diff = max(worst_diff, abs(q - analytic_q(t, p)))
    assert worst_zero <= 1e-12
    assert worst_diff <= 1e-10
    report(3, f"181x181 grid: zero residual {worst_zero:.2e}, q mismatch {worst_diff:.2e}")


def test_c04_decomposition_identities():
    rng = np.random.default_rng(123)
    worst_coupling = 0.0
    for phi in rng.uniform(0.0, 2 * math.pi, 1000):
        diff = np.max(np.abs(steps_unitary(gates.coupling_steps(phi)) - gates.coupling(phi)))
        worst_coupling = max(worst_coupling, float(diff))
    assert worst_coupling <= 1e-12
    worst_anchor = 0.0
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, 1000):
        diff = np.max(
            np.abs(gates.beam_splitter(theta) - gates.u3(2 * theta, 0, 0))
        )
        worst_anchor = max(worst_anchor, float(diff))
    assert worst_anchor <= 1e-12
    report(4, f"coupling defect {worst_coupling:.2e}, anchor defect {worst_anchor:.2e}")


def test_c05_classification_table():
    assert classify_state(HardyParams.from_degrees(0, 37)).kind is StateKind.PS
    assert classify_state(HardyParams.from_degrees(63, 0)).kind is StateKind.PS
    assert classify_state(HardyParams.from_degrees(90, 55)).kind is StateKind.PS
    assert classify_state(HardyParams.from_degrees(45, 90)).kind is StateKind.MES
    params = HardyParams.from_degrees(51.827, 51.827)
    result = classify_state(params)
    assert result.kind is StateKind.NMES
    # pure prepared rho: concurrence = 2 sqrt(det Tr_Bob rho)
    rho = evolve(ground_state(), preparation_steps(params.theta, params.phi), NoiseModel.none())
    oracle = 2.0 * math.sqrt(np.linalg.det(rho[0::2, 0::2] + rho[1::2, 1::2]).real)
    assert abs(result.concurrence - oracle) <= 1e-10
    report(5, f"4 table rows + NMES optimum, concurrence {result.concurrence:.4f}")


def test_c06_phi_90_failure_case():
    for theta_deg in range(10, 81):
        if theta_deg == 45:
            continue
        params = HardyParams.from_degrees(float(theta_deg), 90.0)
        assert classify_state(params).kind is StateKind.NMES
        assert analytic_q(params.theta, params.phi) <= 1e-12
    report(6, "NMES with q = 0 for theta in 10..80 deg (except 45) at phi = 90 deg")


def test_c07_optimum_location():
    axis = np.arange(0.0, 90.0 + 1e-9, 0.1)
    q = q_surface(axis, axis)
    i, j = np.unravel_index(np.argmax(q), q.shape)
    theta_star, phi_star = axis[i], axis[j]
    assert abs(theta_star - 51.827) <= 0.1
    assert abs(phi_star - 51.827) <= 0.1
    assert abs(math.cos(2 * DEG(theta_star)) - (2 - math.sqrt(5))) <= 2e-3
    report(7, f"grid argmax at ({theta_star:.1f}, {phi_star:.1f}) deg")


def test_c08_shot_statistics():
    params = HardyParams(*optimal_angles())
    dists = experiment_distributions([params.theta], [params.phi], NoiseModel.none())
    tol = 4 * statistical_error(float(dists[0, 3, 0]), 10)
    worst = 0.0
    for seed in range(20):
        pooled = estimate_batch(dists, ShotConfig(seed=seed), [()])[0][0, 3]
        worst = max(worst, abs(pooled - 0.09017))
        assert abs(pooled - 0.09017) <= tol, seed
    assert abs(statistical_error(0.5, 1) - 0.005524) < 1e-6
    report(8, f"20 seeds within {tol:.4f} of 0.09017 (worst {worst:.4f})")


def test_c09_noisy_model_properties():
    optimum = HardyParams(*optimal_angles())
    # (a) zero-noise engine reproduces the ideal distributions of the
    # independent dense Kraus-sum reference
    quiet = NoiseModel.none()
    for theta_deg, phi_deg in ((51.827, 51.827), (30, 60), (45, 90), (0, 0)):
        params = HardyParams.from_degrees(theta_deg, phi_deg)
        np.testing.assert_allclose(
            experiment_distributions([params.theta], [params.phi], quiet)[0],
            ref.distributions(params.theta, params.phi, 0.0, 0.0, 0.0, 0.0),
            atol=1e-10,
        )
    # (b) default profile keeps the three zero-equations in (0, 0.1)
    eps, _, _ = measure_epsilons(optimum, NoiseModel.default_profile(), None)
    for e in eps[:3]:
        assert 0.0 < e < 0.1
    # (c) error sum is monotone along a 5-point ladder in each rate
    base = NoiseModel.default_profile()
    for which in ("p1", "p2", "readout"):
        values = []
        for factor in (0.0, 0.5, 1.0, 2.0, 4.0):
            model = NoiseModel.from_rates(
                base.p1 * (factor if which == "p1" else 1.0),
                base.p2 * (factor if which == "p2" else 1.0),
                0.02 * (factor if which == "readout" else 1.0),
                0.02 * (factor if which == "readout" else 1.0),
            )
            eps, _, _ = measure_epsilons(optimum, model, None)
            values.append(eps[:3].sum())
        assert np.all(np.diff(values) >= -1e-12), (which, values)
    # (d) fewer gates means less error whenever the CNOTs are noisy
    for variant in ("ps_00", "ps_01"):
        for p2 in (0.002, 0.01, 0.05):
            rc = reduced_circuit_compare(variant, NoiseModel.from_rates(0.0, p2, 0.0, 0.0))
            assert rc.reduced_eps < rc.full_eps
    report(9, "zero-noise equality, epsilon band, ladder monotonicity, gate-count ordering")


def test_c10_metrics_plumbing(tmp_path, capsys):
    def run_metrics(peak_deg, rho_args=()):
        path = tmp_path / f"peak{peak_deg}.csv"
        lines = [CSV_HEADER]
        for t in range(91):
            q = analytic_q(DEG(t), DEG(t))
            eps5 = 0.02 + 0.1 * math.exp(-((t - peak_deg) ** 2) / 60.0)
            kind = "PS" if t in (0, 90) else "NMES"
            lines.append(f"{t},{t},{q:.9g},0,0,0,{eps5:.9g},{eps5 - q:.9g},0.001,{kind}")
        path.write_text("\n".join(lines) + "\n")
        import io

        out = io.StringIO()
        assert main(["metrics", "--in", str(path), *rho_args], out=out) == EXIT_OK
        return {
            k: v for k, v in
            (line.split("=", 1) for line in out.getvalue().splitlines() if "=" in line)
        }

    shifted = run_metrics(62)
    assert abs(float(shifted["shift_deg"]) - 10.173) <= 1.0
    contained = run_metrics(40)
    assert abs(float(contained["delta_interval_deg"]) - 11.827) <= 1.0
    report(
        10,
        f"shift {shifted['shift_deg']} deg for 62-deg peak, "
        f"delta {contained['delta_interval_deg']} deg for 40-deg peak",
    )


def test_c11_determinism(tmp_path):
    import io

    args = [
        "sweep", "diagonal", "--from", "0", "--to", "90", "--step", "5",
        "--noise", "default", "--seed", "7", "--out",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(args + [str(first)], out=io.StringIO()) == EXIT_OK
    assert main(args + [str(second)], out=io.StringIO()) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    report(11, f"identical bytes for repeated sweep ({first.stat().st_size} bytes)")
