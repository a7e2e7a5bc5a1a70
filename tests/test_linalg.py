import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qverify import apply, hadamard_power, is_unitary, tensor
from qverify.linalg import as_state

import refdata


H2 = np.array([[refdata.R, refdata.R], [refdata.R, -refdata.R]])

# Expanding the tensor product of two Hadamards by hand gives a matrix of
# quarter entries with this sign pattern.
H2X2 = 0.5 * np.array([
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
])


def random_orthogonal(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


class TestApply:
    def test_identity(self):
        out = apply(np.eye(4), [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(out, [1.0, 0.0, 0.0, 0.0])

    def test_hadamard_pair_collapses_uniform_state(self):
        # Matches the final step of the 4-bit run table for word 0000.
        out = apply(H2X2, [0.5, 0.5, 0.5, 0.5])
        assert np.allclose(out, [1, 0, 0, 0], atol=1e-9)

    def test_hadamard_pair_on_alternating_signs(self):
        # Final step of the 4-bit run table for word 0001.
        out = apply(H2X2, [0.5, -0.5, 0.5, -0.5])
        assert np.allclose(out, [0, 1, 0, 0], atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(np.eye(4), np.zeros(3))

    def test_non_square_matrix(self):
        with pytest.raises(ValueError):
            apply(np.zeros((2, 3)), np.zeros(3))

    @pytest.mark.parametrize("k", [2, 4, 8, 32])
    def test_unitary_preserves_norm(self, rng, k):
        m = random_orthogonal(rng, k)
        for _ in range(25):
            v = rng.standard_normal(k)
            v /= np.linalg.norm(v)
            out = apply(m, v)
            assert abs(out @ out - 1.0) <= 1e-9

    @given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4))
    def test_norm_preserved_on_arbitrary_unit_vectors(self, raw):
        v = np.asarray(raw)
        norm = np.linalg.norm(v)
        if norm < 1e-6:
            return
        v = as_state(v / norm)
        out = apply(H2X2, v)
        assert abs(out @ out - 1.0) <= 1e-9


class TestTensor:
    def test_identity_tensor_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_hadamard_tensor_hadamard(self):
        assert np.allclose(tensor(H2, H2), H2X2, atol=1e-12)
        assert np.allclose(tensor(H2, H2)[0], 0.5, atol=1e-12)

    def test_triple_hadamard_first_row(self):
        hhh = tensor(tensor(H2, H2), H2)
        assert np.allclose(hhh[0], refdata.E, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            tensor(np.zeros((2, 3)), np.eye(2))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.uniform(-1, 1, (d, d)) for d in (2, 3, 2))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.abs(left - right).max() <= 1e-12


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
            expected = tensor(expected, H2)
        assert np.abs(hadamard_power(t) - expected).max() <= 1e-12


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(8), tol=1e-12)

    def test_zeros(self):
        assert not is_unitary(np.zeros((4, 4)), tol=1e-12)

    def test_six_bit_stage_matrix(self):
        assert is_unitary(refdata.SIX_BIT_U1, tol=1e-12)

    def test_rows_are_compared_not_columns(self):
        # Unit rows at 0.6 to each other; the columns' Gram error is 0.48.
        m = np.array([[1.0, 0.0], [0.6, 0.8]])
        assert not is_unitary(m, tol=0.5)
        assert is_unitary(m.T, tol=0.5)

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
