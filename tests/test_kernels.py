"""Tests of the numpy kernels against dense execution and plain Python."""

import numpy as np
import pytest

import qverify
from qverify import BooleanFunction, build_algorithm, run
from qverify import _kernels
from qverify.model import EXACT_TOL, _sweep_arrays


class TestBackendSelection:
    def test_active_backend_is_known(self):
        # The benchmark records these; numpy is the only backend.
        assert qverify.BACKEND == "numpy"
        assert qverify.HAVE_NUMBA is False


class TestPairRun:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_matches_dense_execution(self, n):
        # Every word up to n = 10, a seeded sample of 256 words at n = 12.
        alg = build_algorithm(n)
        words = range(1 << n) if n <= 10 else np.random.default_rng(n).integers(0, 1 << n, 256)
        for w in words:
            fast = _kernels.pair_run(n, int(w))
            dense = run(alg, format(int(w), f"0{n}b")).final
            assert np.abs(fast - dense).max() <= 1e-12


class TestPairSweep:
    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_matches_dense_sweep(self, n):
        alg = build_algorithm(n)
        expected = _kernels.verify_values_range(n, 0, 1 << n)
        dense = _kernels.sweep_range(*_sweep_arrays(alg), n, 0, 1 << n, expected, EXACT_TOL)
        pair = _kernels.pair_sweep_range(n, 0, 1 << n, expected, EXACT_TOL)
        assert dense[0] == pair[0] == -1
        assert dense[1] == pytest.approx(pair[1], abs=1e-12)

    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_flipped_table_gives_the_same_counterexample(self, n):
        flip = int(np.random.default_rng(n).integers(0, 1 << n))
        expected = _kernels.verify_values_range(n, 0, 1 << n)
        expected[flip] ^= 1
        dense = _kernels.sweep_range(*_sweep_arrays(build_algorithm(n)), n, 0, 1 << n,
                                     expected, EXACT_TOL)
        pair = _kernels.pair_sweep_range(n, 0, 1 << n, expected, EXACT_TOL)
        assert dense[0] == pair[0] == flip
        assert dense[1] == pytest.approx(pair[1], abs=1e-12)

    def test_first_failure_in_subrange(self):
        n = 6
        # Complemented expectations make every word a failure; the reported
        # one must be the range start, for the reference and the kernel.
        expected = 1 - _kernels.verify_values_range(n, 0, 1 << n)
        first, _ = _kernels.pair_sweep_range(n, 17, 40, expected[17:40], EXACT_TOL)
        assert first == 17
        arrays = _sweep_arrays(build_algorithm(n))
        assert _kernels.sweep_range(*arrays, n, 17, 40, expected[17:40], EXACT_TOL)[0] == 17

    def test_empty_range(self):
        n = 4
        expected = _kernels.verify_values_range(n, 5, 5)
        arrays = _sweep_arrays(build_algorithm(n))
        assert _kernels.sweep_range(*arrays, n, 5, 5, expected, EXACT_TOL) == (-1, np.inf)
        assert _kernels.pair_sweep_range(n, 5, 5, expected, EXACT_TOL) == (-1, np.inf)


class TestVerifyValuesOracle:
    def test_against_python_pair_scan(self):
        n = 8
        values = _kernels.verify_values_range(n, 0, 1 << n)
        for w in range(1 << n):
            word = format(w, f"0{n}b")
            expected = all(word[i] == word[i + 1] for i in range(0, n, 2))
            assert bool(values[w]) == expected

    def test_matches_boolean_function(self):
        f = BooleanFunction.verify(12)
        assert np.array_equal(f.values(),
                              _kernels.verify_values_range(12, 0, 1 << 12))
