"""Gate-constructor tests, including the coupling decomposition identity."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hardysim import gates
from hardysim.engine import CX, steps_unitary

SQ2 = 1.0 / math.sqrt(2.0)
BASIS = np.eye(4, dtype=complex)  # BASIS[k] is the basis state |k>


class TestSingleQubitGates:
    def test_u1_special_values(self):
        np.testing.assert_allclose(gates.u1(0.0), np.eye(2), atol=1e-15)
        np.testing.assert_allclose(gates.u1(math.pi), np.diag([1, -1]), atol=1e-15)
        np.testing.assert_allclose(gates.u1(math.pi / 2), np.diag([1, 1j]), atol=1e-15)

    def test_u3_identity(self):
        np.testing.assert_allclose(gates.u3(0, 0, 0), np.eye(2), atol=1e-15)

    def test_u3_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) * SQ2
        np.testing.assert_allclose(gates.u3(math.pi / 2, 0, math.pi), h, atol=1e-15)

    def test_u3_quarter_beam(self):
        expect = np.array([[1, -1], [1, 1]]) * SQ2
        np.testing.assert_allclose(gates.u3(math.pi / 2, 0, 0), expect, atol=1e-15)

    def test_beam_splitter_values(self):
        np.testing.assert_allclose(gates.beam_splitter(0.0), np.eye(2), atol=1e-15)
        np.testing.assert_allclose(
            gates.beam_splitter(math.pi / 4),
            np.array([[1, -1], [1, 1]]) * SQ2,
            atol=1e-15,
        )
        np.testing.assert_allclose(
            gates.beam_splitter(math.pi / 2), [[0, -1], [1, 0]], atol=1e-15
        )

    def test_conjugated_beam_splitter(self):
        # direct 2x2 product oracle, written out by hand
        rng = np.random.default_rng(7)
        for phi in rng.uniform(0, 2 * math.pi, 25):
            got = (
                gates.u1(2 * phi)
                @ gates.beam_splitter(math.pi / 4)
                @ gates.u1(-2 * phi)
            )
            oracle = SQ2 * np.array(
                [[1, -np.exp(-2j * phi)], [np.exp(2j * phi), 1]]
            )
            np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_beam_splitter_rotation_group(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            t1, t2 = rng.uniform(-math.pi, math.pi, 2)
            composed = gates.beam_splitter(t1) @ gates.beam_splitter(t2)
            np.testing.assert_allclose(
                composed, gates.beam_splitter(t1 + t2), atol=1e-10
            )

    @given(st.floats(-10 * math.pi, 10 * math.pi))
    def test_beam_splitter_anchor(self, theta):
        np.testing.assert_allclose(
            gates.beam_splitter(theta),
            gates.u3(2 * theta, 0, 0),
            atol=1e-12,
        )

    def test_determinants(self):
        rng = np.random.default_rng(9)
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, (20, 3))
        for theta, phi, lam in angles:
            for g in (
                gates.u1(lam),
                gates.u3(theta, phi, lam),
                gates.beam_splitter(theta),
                gates.coupling(phi),
                steps_unitary([CX]),
                gates.hadamard(),
                gates.pauli_x(),
            ):
                assert abs(abs(np.linalg.det(g)) - 1.0) < 1e-10


class TestCoupling:
    def test_coupling_zero_is_identity(self):
        np.testing.assert_allclose(gates.coupling(0.0), np.eye(4), atol=1e-15)

    def test_coupling_half_pi_is_cz(self):
        np.testing.assert_allclose(
            gates.coupling(math.pi / 2), np.diag([1, 1, 1, -1]), atol=1e-15
        )

    def test_coupling_phases_only_11(self):
        rng = np.random.default_rng(10)
        for phi in rng.uniform(0, 2 * math.pi, 20):
            out = gates.coupling(phi) @ BASIS[3]
            np.testing.assert_allclose(out, [0, 0, 0, np.exp(2j * phi)], atol=1e-15)

    def test_decomposition_zero(self):
        np.testing.assert_allclose(
            steps_unitary(gates.coupling_steps(0.0)), np.eye(4), atol=1e-15
        )

    def test_decomposition_half_pi_by_direct_product(self):
        # oracle: multiply the five 4x4 matrices written out independently
        lam = math.pi / 2
        u1p = lambda a: np.diag([1, np.exp(1j * a)])
        cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        m1 = np.kron(np.eye(2), u1p(-lam))
        m2 = np.kron(u1p(lam), u1p(-lam))
        m3 = np.kron(np.eye(2), u1p(2 * lam))
        oracle = m3 @ cx @ m2 @ cx @ m1
        np.testing.assert_allclose(oracle, np.diag([1, 1, 1, -1]), atol=1e-12)
        np.testing.assert_allclose(
            steps_unitary(gates.coupling_steps(lam)), oracle, atol=1e-12
        )

    def test_decomposition_random_phase_tracking(self):
        # phase-tracking oracle: |00> -> 1, |01> -> e^{-2il} e^{2il} = 1,
        # |10> -> 1, |11> -> e^{2il}
        rng = np.random.default_rng(11)
        for phi in rng.uniform(0, 2 * math.pi, 100):
            composed = steps_unitary(gates.coupling_steps(phi))
            oracle = np.diag([1.0, 1.0, 1.0, np.exp(2j * phi)])
            np.testing.assert_allclose(composed, oracle, atol=1e-12)

    @settings(max_examples=60)
    @given(st.floats(0.0, 2 * math.pi))
    def test_decomposition_equals_coupling(self, phi):
        diff = np.max(
            np.abs(steps_unitary(gates.coupling_steps(phi)) - gates.coupling(phi))
        )
        assert diff <= 1e-12


class TestTwoLevelGates:
    def test_cx_control_set(self):
        out = steps_unitary([CX]) @ BASIS[2]
        np.testing.assert_allclose(out, [0, 0, 0, 1], atol=1e-15)

    def test_cx_control_clear(self):
        out = steps_unitary([CX]) @ BASIS[1]
        np.testing.assert_allclose(out, [0, 1, 0, 0], atol=1e-15)

    def test_hadamard_squares_to_identity(self):
        np.testing.assert_allclose(
            (gates.hadamard() @ gates.hadamard()), np.eye(2), atol=1e-15
        )

    def test_pauli_x_flips(self):
        out = gates.pauli_x() @ np.array([1, 0])
        np.testing.assert_allclose(out, [0, 1], atol=1e-15)
