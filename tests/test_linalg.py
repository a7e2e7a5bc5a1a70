# The matrix rules, named after the linear algebra they test: the builder's
# Hadamard power, and the model's unitarity test and start-state rule.
import numpy as np
import pytest

from qverify import hadamard_power, is_unitary
from qverify.model import as_state

import refdata


H2 = np.array([[refdata.R, refdata.R], [refdata.R, -refdata.R]])


class TestHadamardPower:
    def test_t1_is_the_hadamard_matrix(self):
        assert np.allclose(hadamard_power(1), H2, atol=1e-12)

    def test_t3_first_row(self):
        m = hadamard_power(3)
        assert m.shape == (8, 8)
        assert np.allclose(m[0], refdata.E, atol=1e-12)

    def test_t2_collapses_uniform_negative_state(self):
        # Final step of the 4-bit run table for word 1100.
        out = hadamard_power(2) @ np.full(4, -0.5)
        assert np.allclose(out, [-1, 0, 0, 0], atol=1e-9)

    def test_rejects_t0(self):
        with pytest.raises(ValueError):
            hadamard_power(0)

    @pytest.mark.parametrize("t", range(1, 11))
    def test_entries_are_exact(self, t):
        # Entry (i, j) is exactly 2**(-t/2) with the sign (-1)**popcount(i & j):
        # no rounding, and no zero whose sign bit could differ.
        both = np.arange(1 << t)[:, None] & np.arange(1 << t)
        odd = np.zeros_like(both)
        for bit in range(t):
            odd ^= (both >> bit) & 1
        expected = np.where(odd == 1, -(2.0 ** (-t / 2)), 2.0 ** (-t / 2))
        assert hadamard_power(t).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("t", range(1, 7))
    def test_self_inverse(self, t):
        m = hadamard_power(t)
        delta = m @ m - np.eye(1 << t)
        assert np.abs(delta).max() <= 1e-12

    @pytest.mark.parametrize("t", range(1, 7))
    def test_matches_repeated_tensor(self, t):
        expected = H2
        for _ in range(t - 1):
            expected = np.kron(expected, H2)
        assert np.abs(hadamard_power(t) - expected).max() <= 1e-12


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(8), tol=1e-12)

    def test_zeros(self):
        assert not is_unitary(np.zeros((4, 4)), tol=1e-12)

    def test_six_bit_stage_matrix(self):
        assert is_unitary(refdata.SIX_BIT_U1, tol=1e-12)

    def test_rows_are_compared_not_columns(self):
        # Unit rows at 0.6 to each other: the rows' Gram error has row sums
        # 0.6, the columns' 0.36 + 0.48 = 0.84.
        m = np.array([[1.0, 0.0], [0.6, 0.8]])
        assert is_unitary(m, tol=0.7)
        assert not is_unitary(m.T, tol=0.7)

    def test_row_sums_are_measured_not_entries(self):
        # Four unit rows at 0.3 to each other: the largest entry of the Gram
        # error is 0.3, but each of its row sums is 0.9.
        m = np.linalg.cholesky(0.7 * np.eye(4) + 0.3)
        np.testing.assert_allclose(m @ m.T, 0.7 * np.eye(4) + 0.3, atol=1e-15)
        assert not is_unitary(m, tol=0.5)
        assert is_unitary(m, tol=0.95)

    def test_tolerance_is_respected(self):
        nearly = np.eye(3)
        nearly[0, 0] += 1e-10
        assert not is_unitary(nearly, tol=1e-12)
        assert is_unitary(nearly, tol=1e-9)


class TestAsState:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            as_state(np.array([1.0, 0.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            as_state(np.array([1.0, 1.0]))
