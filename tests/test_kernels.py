"""Tests of the numpy kernels against dense execution and plain Python."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import qverify
import refdata
from qverify import BooleanFunction, build_algorithm, run
from qverify import _kernels, boolfunc
from qverify.boolfunc import verify_values_range
from qverify.model import EXACT_TOL, _sweep_arrays, decide


class TestBackendSelection:
    def test_active_backend_is_known(self):
        # The benchmark records these; numpy is the only backend.
        assert qverify.BACKEND == "numpy"
        assert qverify.HAVE_NUMBA is False


def _entries(m: np.ndarray):
    """The row-major (rows, cols, values) entries != 0 of a dense matrix."""
    rows, cols = np.nonzero(m)
    return rows, cols, m[rows, cols]


def _permuted_blocks(seed: int, heights, widths, scale=1.0) -> np.ndarray:
    """A square matrix whose rows and columns are seeded permutations of a
    block diagonal of random blocks heights[i] x widths[i]."""
    rng = np.random.default_rng(seed)
    size = sum(heights)
    m = np.zeros((size, size))
    r0 = c0 = 0
    for h, w in zip(heights, widths):
        m[r0:r0 + h, c0:c0 + w] = rng.standard_normal((h, w)) * scale
        r0, c0 = r0 + h, c0 + w
    return m[rng.permutation(size)][:, rng.permutation(size)]


def _same_residual(entries, cols, rel=1e-12, abs=1e-15):
    got = _kernels.gram_residual(entries, cols)
    want = refdata.dense_gram_residual(entries, cols)
    assert got == pytest.approx(want, rel=rel, abs=abs)


class TestGramResidual:
    """gram_residual takes one Gram per connected block of B^T B; it must
    give the dense formula's value, tests/refdata.dense_gram_residual."""

    @pytest.mark.parametrize("n", range(2, 17, 2))
    def test_builder_stages_on_all_and_on_reached_columns(self, n):
        alg = build_algorithm(n)
        reached = alg.start != 0
        for stage in alg.stages:
            r, c, v = stage.nonzeros
            for cols in (np.ones(alg.dim, dtype=bool), reached):
                _same_residual(stage.nonzeros, cols)
            reached = np.bincount(r[reached[c] & (v != 0)], minlength=alg.dim) > 0

    @pytest.mark.parametrize("size", [64, 256])
    def test_dense_orthogonal(self, size):
        q, _ = np.linalg.qr(np.random.default_rng(size).standard_normal((size, size)))
        every = np.ones(size, dtype=bool)
        _same_residual(_entries(q), every, abs=1e-13)
        assert _kernels.gram_residual(_entries(q), every) < 1e-12
        # A damaged entry shows at the dense formula's size.
        q[3, 5] += 0.25
        _same_residual(_entries(q), every)

    @pytest.mark.parametrize("seed", range(4))
    def test_permuted_blocks_of_mixed_shapes(self, seed):
        heights, widths = [1, 2, 2, 3, 5, 1, 4, 2, 3], [1, 2, 3, 2, 5, 1, 4, 3, 2]
        m = _permuted_blocks(seed, heights, widths)
        cols = np.random.default_rng(seed).random(m.shape[0]) < 0.7
        for marked in (np.ones(m.shape[0], dtype=bool), cols):
            _same_residual(_entries(m), marked)

    def test_orthogonal_blocks_keep_norms(self):
        q = np.zeros((6, 6))
        q[:2, :2] = [[0.6, 0.8], [-0.8, 0.6]]
        q[2:5, 2:5] = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
        q[5, 5] = -1.0
        perm = np.random.default_rng(6).permutation(6)
        _same_residual(_entries(q[perm][:, perm]), np.ones(6, dtype=bool), abs=1e-15)
        assert _kernels.gram_residual(_entries(q[perm][:, perm]), np.ones(6, dtype=bool)) < 1e-15

    def test_unmarked_column_splits_a_block(self):
        # Columns 0 and 2 share a block only through column 1.
        m = np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0], [0.0, 0.0, 0.0]])
        for cols in ([True, True, True], [True, False, True], [False, True, False]):
            _same_residual(_entries(m), np.array(cols))
        assert _kernels.gram_residual(_entries(m), np.array([True, False, True])) == 15.0

    def test_marked_column_without_entries_adds_one(self):
        m = np.diag([1.0, 0.0, 1.0])
        for cols in ([True, True, True], [True, False, True], [False, True, False]):
            _same_residual(_entries(m), np.array(cols))
        assert _kernels.gram_residual(_entries(m), np.ones(3, dtype=bool)) == 1.0

    def test_no_marked_column(self):
        alg = build_algorithm(6)
        none = np.zeros(alg.dim, dtype=bool)
        assert _kernels.gram_residual(alg.stages[0].nonzeros, none) == 0.0
        assert refdata.dense_gram_residual(alg.stages[0].nonzeros, none) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_huge_entries_overflow_where_the_dense_formula_does(self, seed):
        # 1e300 squared overflows. Whether a sum of +inf and -inf comes out
        # nan or inf is the BLAS kernel's choice; either fails every tol.
        rng = np.random.default_rng(seed)
        m = _permuted_blocks(seed, [1, 2, 3, 2], [1, 3, 2, 2])
        huge = np.flatnonzero(m)[rng.choice(np.count_nonzero(m), size=3, replace=False)]
        m.flat[huge] = rng.choice([-1e300, 1e300], size=3)
        cols = rng.random(8) < 0.6
        for marked in (np.ones(8, dtype=bool), cols):
            got = _kernels.gram_residual(_entries(m), marked)
            want = refdata.dense_gram_residual(_entries(m), marked)
            assert np.isfinite(got) == np.isfinite(want)
            if np.isfinite(want):
                assert got == pytest.approx(want, rel=1e-12)

    def test_nan_of_one_block_is_not_dropped_by_the_others(self):
        # Python's max(0.0, nan) is 0.0; the blocks' worst must stay nan.
        # The 1 x 1 block of column 0 is measured before the nan's 2 x 2.
        m = np.diag([1.0, np.nan, 1.0])
        m[1, 2] = 2.0
        every = np.ones(3, dtype=bool)
        assert np.isnan(refdata.dense_gram_residual(_entries(m), every))
        assert np.isnan(_kernels.gram_residual(_entries(m), every))


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
        expected = verify_values_range(n, 0, 1 << n)
        dense = _kernels.sweep_range(*_sweep_arrays(alg), n, 0, 1 << n, expected, EXACT_TOL)
        pair = _kernels.pair_sweep_range(n, 0, 1 << n, expected, EXACT_TOL)
        assert dense[0] == pair[0] == -1
        assert dense[1] == pytest.approx(pair[1], abs=1e-12)

    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_flipped_table_gives_the_same_counterexample(self, n):
        flip = int(np.random.default_rng(n).integers(0, 1 << n))
        expected = verify_values_range(n, 0, 1 << n)
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
        expected = 1 - verify_values_range(n, 0, 1 << n)
        first, _ = _kernels.pair_sweep_range(n, 17, 40, expected[17:40], EXACT_TOL)
        assert first == 17
        arrays = _sweep_arrays(build_algorithm(n))
        assert _kernels.sweep_range(*arrays, n, 17, 40, expected[17:40], EXACT_TOL)[0] == 17

    def test_empty_range(self):
        n = 4
        expected = verify_values_range(n, 5, 5)
        arrays = _sweep_arrays(build_algorithm(n))
        assert _kernels.sweep_range(*arrays, n, 5, 5, expected, EXACT_TOL) == (-1, np.inf)
        assert _kernels.pair_sweep_range(n, 5, 5, expected, EXACT_TOL) == (-1, np.inf)


class TestJudge:
    """The one judging step of both sweeps, on hand-made squared amplitudes:
    a row per kept output row, label 0's first, and a column per word."""

    # Three rows, four words; the columns sum to 1 exactly.
    PROBS = np.array([[1.0, 0.0, 0.25, 0.5], [0.0, 0.0, 0.25, 0.25], [0.0, 1.0, 0.5, 0.25]])

    @staticmethod
    def judge(probs, zeros, want, tol=EXACT_TOL, rest=None):
        return _kernels._judge(np.asarray(probs, dtype=float), zeros, rest,
                               np.array(want, dtype=np.uint8), tol)

    @pytest.mark.parametrize("tol,exact", [(0.5, True), (0.4, False)])
    def test_a_tie_is_label_0(self, tol, exact):
        # p0 == p1 == 0.5: label 0 is computed, exactly when 0.5 >= 1 - tol.
        assert self.judge([[0.5], [0.5]], 1, [0], tol) == (-1 if exact else 0, 0.5)
        # Label 1 never wins a tie, whatever the tolerance.
        assert self.judge([[0.5], [0.5]], 1, [1], 1.0) == (0, 0.5)

    @pytest.mark.parametrize("zeros,want,tol,expected", [
        # Every row labelled 1: p0 is 0 and p1 the column sums, all 1.
        (0, [1, 1, 1, 1], EXACT_TOL, (-1, 1.0)),
        (0, [1, 1, 0, 1], EXACT_TOL, (2, 0.0)),
        # Every row labelled 0.
        (3, [0, 0, 0, 0], EXACT_TOL, (-1, 1.0)),
        (3, [0, 1, 0, 0], EXACT_TOL, (1, 0.0)),
        # One row labelled 0: p0 = [1, 0, 0.25, 0.5], p1 = [0, 1, 0.75, 0.5];
        # word 3 ties at 0.5, below 1 - tol.
        (1, [0, 1, 1, 0], 0.25, (3, 0.5)),
        # Two: p0 = [1, 0, 0.5, 0.75], p1 = [0, 1, 0.5, 0.25].
        (2, [0, 1, 0, 0], 0.5, (-1, 0.5)),
        (2, [0, 1, 1, 0], 0.5, (2, 0.5)),
    ], ids=["none-exact", "none-wrong", "all-exact", "all-wrong", "one", "two-exact", "two-tie"])
    def test_labels_are_two_slices(self, zeros, want, tol, expected):
        probs = self.PROBS.copy()
        assert self.judge(probs, zeros, want, tol) == expected
        assert np.array_equal(probs, self.PROBS)

    def test_agrees_with_model_decide(self):
        # The final state [a0, a1], labelled [0, 1], against its squared
        # amplitudes as two kept rows: a tie, the least amplitude whose square
        # reaches 1 - EXACT_TOL and the float just below it, and a mass above 1.
        at = math.sqrt(1.0 - EXACT_TOL)
        while at * at < 1.0 - EXACT_TOL:
            at = math.nextafter(at, 2.0)
        while math.nextafter(at, 0.0) ** 2 >= 1.0 - EXACT_TOL:
            at = math.nextafter(at, 0.0)
        below = math.nextafter(at, 0.0)
        assert decide(np.array([at, 0.0]), [0, 1]).exact
        assert not decide(np.array([below, 0.0]), [0, 1]).exact
        grid = [0.0, math.sqrt(0.5), below, at, 1.1]
        for a0, a1, want in itertools.product(grid, grid, [0, 1]):
            result = decide(np.array([a0, a1]), [0, 1])
            first, least = self.judge([[a0 * a0], [a1 * a1]], 1, [want])
            assert (first == -1) == (result.output == want and result.exact), (a0, a1, want)
            assert least == (result.p1 if want else result.p0)

    @pytest.mark.parametrize("label", [0, 1])
    def test_rest_mass_is_clamped_at_0(self, label):
        # The kept rows, all of the other label, hold 1.3 > norm2 = 1: the
        # rest label's mass is 0, not -0.3.
        kept = [[0.7, 0.5], [0.6, 0.5]]
        zeros = 0 if label == 0 else 2
        other = 1 - label
        assert self.judge(kept, zeros, [other, other], rest=(label, 1.0)) == (-1, 1.0)
        assert self.judge(kept, zeros, [label, other], rest=(label, 1.0)) == (0, 0.0)
        # Within norm2, the rest mass is norm2 minus theirs, word by word.
        first, least = self.judge([[0.25, 0.375]], 1 - other, [label, label],
                                  rest=(label, np.array([1.0, 1.0])), tol=0.5)
        assert (first, least) == (-1, 0.625)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("rest", [None, (0, 1.0)])
    def test_non_finite_mass_overflows(self, bad, rest):
        with pytest.raises(ValueError, match="overflow"):
            self.judge([[0.5, bad]], 0, [1, 1], rest=rest)

    @pytest.mark.parametrize("rows,zeros,rest", [(3, 1, None), (1, 0, (0, 1.0)), (0, 0, (1, 1.0))])
    def test_empty_block(self, rows, zeros, rest):
        assert self.judge(np.zeros((rows, 0)), zeros, [], rest=rest) == (-1, np.inf)


class TestVerifyValuesOracle:
    def test_against_python_pair_scan(self):
        n = 8
        values = verify_values_range(n, 0, 1 << n)
        for w in range(1 << n):
            word = format(w, f"0{n}b")
            expected = all(word[i] == word[i + 1] for i in range(0, n, 2))
            assert bool(values[w]) == expected

    def test_matches_boolean_function(self):
        f = BooleanFunction.verify(12)
        assert np.array_equal(f.values(),
                              verify_values_range(12, 0, 1 << 12))

    def test_reexported_for_the_benchmark(self):
        assert _kernels.verify_values_range is verify_values_range
        assert _kernels.table_sensitivity is boolfunc.table_sensitivity

    # Empty, unaligned, inside one byte, straddling a byte boundary, and
    # ending at 1 << n.
    @pytest.mark.parametrize("lo,hi", [(0, 256), (3, 200), (5, 5), (9, 14), (6, 10),
                                       (13, 256)])
    def test_ranges_match_evaluate(self, lo, hi):
        values = verify_values_range(8, lo, hi)
        f = BooleanFunction.verify(8)
        assert values.dtype == np.uint8
        assert values.tolist() == [f.evaluate(format(w, "08b")) for w in range(lo, hi)]

    def test_seeded_ranges_slice_the_whole_table(self):
        n = 14
        whole = verify_values_range(n, 0, 1 << n)
        for lo, hi in np.sort(np.random.default_rng(n).integers(0, (1 << n) + 1, (20, 2))):
            assert np.array_equal(verify_values_range(n, int(lo), int(hi)), whole[lo:hi])

    def test_peak_memory_at_the_builder_cap(self):
        # The 16 MiB table and its 2 MiB int, not whole-cube int64
        # temporaries (256 MiB).
        tracemalloc.start()
        try:
            values = verify_values_range(24, 0, 1 << 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.nbytes == 1 << 24
        assert int(values[0]) == 1 and int(values[-1]) == 1 and int(values[1]) == 0
        assert peak <= 64 << 20
