import copy
import itertools
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qverify import (
    BooleanFunction,
    Kron,
    Nonzeros,
    QueryAlgorithm,
    build_algorithm,
    check_exact,
    compute,
    is_unitary,
    measure,
    realize_query,
    run,
    run_batch,
)
from qverify import _kernels, model
from qverify._kernels import sweep_range
from qverify.model import EXACT_TOL, _sweep_arrays, as_state
from qverify.serialize import load_algorithm, save_algorithm

import refdata


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
        # as_state has no norm rule: a start of [1, 1] loads, and
        # unitary_within and check_exact reject it by its behaviour.
        assert as_state(np.array([1.0, 1.0])).tolist() == [1.0, 1.0]
        alg = QueryAlgorithm(2, [1.0, 1.0], [(np.eye(2), [1, 2])], np.eye(2), [1, 0])
        assert not alg.unitary_within()
        assert not check_exact(alg, BooleanFunction.verify(2)).exact


class TestVarMap:
    """A query is its var_map: one check serves QueryAlgorithm and
    realize_query, and the stored form is a read-only int64 array."""

    @staticmethod
    def _both(var_map):
        """Pass var_map to realize_query and to QueryAlgorithm; yield each
        call, so that every case runs through both."""
        yield lambda: realize_query(var_map, "11")
        yield lambda: QueryAlgorithm(2, [1.0, 0.0], [(np.eye(2), var_map)], np.eye(2), [1, 0])

    def test_rejects_negative_indices(self):
        for call in self._both([1, -1]):
            with pytest.raises(ValueError, match=r"^variable indices must be >= 1 \(0 marks"):
                call()

    @pytest.mark.parametrize("var_map", [[1.9, 0.2], [1.0, 0.0], np.array([1.0, 0.0]),
                                         [True, False], np.array([True, False]), [1, True],
                                         [2**64, 0], ["1", "0"]])
    def test_rejects_entries_that_are_not_integers(self, var_map):
        for call in self._both(var_map):
            with pytest.raises(ValueError, match="^variable indices must be integers"):
                call()

    @pytest.mark.parametrize("top", [2**63, 2**64 - 1])
    def test_rejects_uint64_entries_past_int64_as_too_large(self, top):
        # Cast to int64 they would wrap negative and be refused as below 1.
        for call in self._both(np.array([top, 0], dtype=np.uint64)):
            with pytest.raises(ValueError, match=f"^variable index {top} is too large"):
                call()

    def test_uint64_entries_in_range_keep_their_messages(self):
        for call in self._both(np.array([3, 0], dtype=np.uint64)):
            with pytest.raises(ValueError, match="variable 3 but"):
                call()
        assert realize_query(np.array([2, 1], dtype=np.uint64), "10").tolist() == [
            [1.0, 0.0], [0.0, -1.0]]

    @pytest.mark.parametrize("var_map", [[], [[1, 0]], 3])
    def test_rejects_empty_or_not_one_dimensional(self, var_map):
        for call in self._both(var_map):
            # The constructor names the stage.
            with pytest.raises(ValueError,
                               match="^(stage 1 )?query diagonal must be a non-empty 1-D"):
                call()

    def test_stored_read_only_int64(self, alg4):
        given = [np.array([2, 0], dtype=dtype) for dtype in (np.int8, np.uint16, np.int64)]
        algs = [QueryAlgorithm(2, [1.0, 0.0], [(np.eye(2), vm)], np.eye(2), [1, 0]) for vm in given]
        for query in [alg.stages[0].query for alg in algs] + [st.query for st in alg4.stages]:
            assert query.dtype == np.int64 and not query.flags.writeable
        assert [alg.stages[0].query.tolist() for alg in algs] == [[2, 0]] * 3
        # The stored array is a copy: changing the given one changes nothing.
        given[2][0] = 1
        assert algs[2].stages[0].query.tolist() == [2, 0]


class TestRealizeQuery:
    def test_stage_one_of_four_bit_instance(self):
        var_map = [1, 0, 2, 0]
        assert np.array_equal(realize_query(var_map, "1100"),
                              np.diag([-1.0, 1.0, -1.0, 1.0]))

    def test_all_fixed_is_identity(self):
        var_map = [0, 0, 0, 0]
        assert np.array_equal(realize_query(var_map, "1011"), np.eye(4))

    def test_six_bit_stage_three_on_zero_word(self):
        var_map = refdata.SIX_BIT_Q3_VARS
        assert np.array_equal(realize_query(var_map, "000000"), np.eye(8))

    def test_word_may_exceed_queried_variables(self):
        var_map = [1, 0]
        assert np.array_equal(realize_query(var_map, "100"), np.diag([-1.0, 1.0]))

    def test_var_index_out_of_range(self):
        with pytest.raises(ValueError):
            realize_query([5, 0], "1100")

    def test_always_unitary(self, rng):
        var_map = rng.integers(0, 7, size=8)
        for _ in range(10):
            word = "".join(str(b) for b in rng.integers(0, 2, size=6))
            q = realize_query(var_map, word)
            assert np.array_equal(q @ q.T, np.eye(8))


class TestRun:
    def test_four_bit_accepting_word(self, alg4):
        assert np.allclose(run(alg4, "1100").final, [-1, 0, 0, 0], atol=1e-9)

    def test_four_bit_rejecting_word(self, alg4):
        assert np.allclose(run(alg4, "0101").final, [0, 0, 0, 1], atol=1e-9)

    def test_intermediate_states_for_zero_word(self, alg4):
        trace = run(alg4, "0000")
        assert np.allclose(trace.after_stage(1), [refdata.R, 0, refdata.R, 0], atol=1e-9)
        assert np.allclose(trace.after_stage(2), [0.5, 0.5, 0.5, 0.5], atol=1e-9)
        assert np.allclose(trace.final, [1, 0, 0, 0], atol=1e-9)

    def test_trace_length_counts_queries(self, alg6):
        trace = run(alg6, "110011")
        assert len(trace.states) == 2 * alg6.t_queries + 2
        assert np.array_equal(trace.states[0], alg6.start)

    def test_word_length_mismatch(self, alg4):
        with pytest.raises(ValueError):
            run(alg4, "110")

    def test_deterministic_bitwise(self, alg6):
        first = run(alg6, "100110")
        second = run(alg6, "100110")
        for a, b in zip(first.states, second.states):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_all_trace_states_have_unit_norm(self, n):
        alg = build_algorithm(n)
        snapshots = run_batch(alg, np.arange(1 << n))
        for snap in snapshots:
            norms = (snap * snap).sum(axis=1)
            assert np.abs(norms - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_factored_final_runs_like_its_dense_product(self, n):
        # The final matrix is applied one factor at a time; the whole
        # product, as one factor, gives the same states up to rounding.
        alg = build_algorithm(n)
        whole = QueryAlgorithm(n, alg.start, alg.stages, alg.final_unitary, alg.labels)
        assert len(alg.final.factors) > 1 and len(whole.final.factors) == 1
        words = np.arange(0, 1 << n, 7)
        for a, b in zip(run_batch(alg, words), run_batch(whole, words)):
            assert np.abs(a - b).max() <= 1e-12
        for w in words[:8]:
            word = format(int(w), f"0{n}b")
            assert np.abs(run(alg, word).final - run(whole, word).final).max() <= 1e-12
        assert run_batch(alg, np.zeros(0, dtype=np.int64))[-1].shape == (0, alg.dim)

    def test_run_batch_matches_run(self, alg6):
        words = np.array([0, 5, 33, 63])
        # A stage stored with no entries still gives float snapshots.
        zeroed = QueryAlgorithm(6, alg6.start, [(np.zeros((alg6.dim, alg6.dim)), alg6.stages[0].query)]
                                + list(alg6.stages[1:]), alg6.final_unitary, alg6.labels)
        for alg in (alg6, _random_algorithm(11)[0], zeroed):
            snapshots = run_batch(alg, words)
            assert len(snapshots) == 2 * alg.t_queries + 2
            for row, w in enumerate(words):
                trace = run(alg, format(w, f"0{alg.n_vars}b"))
                for step, snap in enumerate(snapshots):
                    assert trace.states[step].dtype == np.float64
                    assert snap[row].tobytes() == trace.states[step].tobytes()

    # A float, a string or a bool is refused too, even one naming an in-range word.
    @pytest.mark.parametrize("word", [64, -1, 2.9, "3", True, np.float64(5.0)])
    def test_run_batch_rejects_words_out_of_range(self, alg6, word):
        with pytest.raises(ValueError):
            run_batch(alg6, [0, word])

    def test_run_batch_caps_n_vars_before_building_a_word(self):
        # Each integer indexes one of 2**n_vars words; at 2**34 variables the
        # first word alone would be 16 GiB of characters. Run under a 1 GiB
        # address-space limit, so that a missing cap fails with MemoryError.
        script = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "import numpy as np\n"
            "from qverify import QueryAlgorithm, run_batch\n"
            "alg = QueryAlgorithm(1 << 34, [1.0, 0.0], [(np.eye(2), [1, 0])], np.eye(2), [1, 0])\n"
            "try:\n"
            "    run_batch(alg, [0])\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
        assert (proc.returncode, proc.stdout) == \
            (0, "run_batch capped at 24 variables, got 17179869184\n"), proc.stderr

    def test_runs_past_63_variables(self):
        # Query signs come from the word's bits, never from an integer of
        # it, so x70 is read like any other variable: the output is x70.
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        alg = QueryAlgorithm(70, [1.0, 0.0], [(h, [70, 0])], h, [0, 1])
        for last in (0, 1):
            word = "1" * 69 + str(last)
            sign = 1.0 - 2.0 * last
            assert np.allclose(run(alg, word).after_stage(1), [sign * refdata.R, refdata.R])
            result = compute(alg, word)
            assert (result.output, result.exact) == (last, True)


class TestMeasure:
    def test_accepting_state(self):
        assert measure(np.array([-1.0, 0, 0, 0]), [1, 0, 0, 0]) == (0.0, 1.0)

    def test_rejecting_state(self):
        assert measure(np.array([0, 1.0, 0, 0]), [1, 0, 0, 0]) == (1.0, 0.0)

    def test_even_split(self):
        p0, p1 = measure(np.array([refdata.R, refdata.R]), [1, 0])
        assert p0 == pytest.approx(0.5, abs=1e-9)
        assert p1 == pytest.approx(0.5, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            measure(np.zeros(4), [1, 0])

    def test_rejects_non_binary_labels(self):
        # Casting to uint8 once read 0.5 and 1.7 as 0 and 1, and raised
        # OverflowError or TypeError on -1, 256 and None.
        for label in (2, 0.5, 1.7, -1, 256, None, "1"):
            with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
                measure(np.array([0.6, 0.8]), [1, label])

    @given(st.lists(st.floats(-1, 1), min_size=4, max_size=4),
           st.lists(st.integers(0, 1), min_size=4, max_size=4))
    def test_sign_insensitive(self, raw, labels):
        v = np.asarray(raw)
        assert measure(v, labels) == measure(-v, labels)

    def test_probabilities_sum_to_one(self, alg4):
        for word in refdata.FOUR_BIT_RUNS:
            p0, p1 = measure(run(alg4, word).final, alg4.labels)
            assert p0 + p1 == pytest.approx(1.0, abs=1e-9)


class TestCompute:
    def test_accepting(self, alg4):
        result = compute(alg4, "1111")
        assert result.output == 1
        assert result.probability == pytest.approx(1.0, abs=1e-9)
        assert result.exact

    def test_rejecting(self, alg4):
        result = compute(alg4, "1000")
        assert result.output == 0
        assert result.probability == pytest.approx(1.0, abs=1e-9)
        assert result.exact

    def test_two_bit_instance(self):
        result = compute(build_algorithm(2), "01")
        assert (result.output, result.exact) == (0, True)
        assert result.probability == pytest.approx(1.0, abs=1e-9)

    def test_ambiguous_measurement_is_reported_not_raised(self):
        # Identity pipeline keeps the start state, which straddles the labels.
        var_map = [0, 0]
        alg = QueryAlgorithm(2, [refdata.R, refdata.R], [(np.eye(2), var_map)],
                             np.eye(2), [1, 0])
        result = compute(alg, "00")
        assert not result.exact
        assert result.probability == pytest.approx(0.5, abs=1e-9)


class TestCheckExact:
    def test_four_bit_builder_is_exact(self, alg4):
        report = check_exact(alg4, BooleanFunction.verify(4))
        assert report.exact
        assert report.counterexample is None
        assert report.inputs_checked == 16

    def test_six_bit_builder_is_exact(self, alg6):
        report = check_exact(alg6, BooleanFunction.verify(6))
        assert report.exact
        assert report.min_probability >= 1 - 1e-9

    def test_mislabeled_algorithm_fails_on_first_accepting_word(self, alg4):
        bad = QueryAlgorithm(4, alg4.start, alg4.stages, alg4.final_unitary,
                             np.zeros(4, dtype=np.uint8))
        report = check_exact(bad, BooleanFunction.verify(4))
        assert not report.exact
        assert report.counterexample == "0000"

    def test_arity_mismatch(self, alg4):
        with pytest.raises(ValueError):
            check_exact(alg4, BooleanFunction.verify(6))

    def test_sweep_cap(self):
        var_map = [1, 0]
        alg = QueryAlgorithm(26, [1.0, 0.0], [(np.eye(2), var_map)], np.eye(2), [1, 0])
        with pytest.raises(ValueError):
            check_exact(alg, BooleanFunction.verify(26))

    @pytest.mark.parametrize("n", [2, 6, 8])
    def test_matches_per_word_compute(self, n):
        alg = build_algorithm(n)
        f = BooleanFunction.verify(n)
        report = check_exact(alg, f)
        probs = []
        for w in range(1 << n):
            word = format(w, f"0{n}b")
            result = compute(alg, word)
            assert result.exact and result.output == f.evaluate(word)
            probs.append(result.probability)
        assert report.exact
        assert report.min_probability == pytest.approx(min(probs), abs=1e-12)

    def test_parallel_equals_serial(self):
        alg = build_algorithm(10)
        f = BooleanFunction.verify(10)
        assert check_exact(alg, f) == check_exact(alg, f, workers=2)

    def test_parallel_failure_reports_first_counterexample(self, alg4):
        bad = QueryAlgorithm(4, alg4.start, alg4.stages, alg4.final_unitary,
                             np.zeros(4, dtype=np.uint8))
        serial = check_exact(bad, BooleanFunction.verify(4))
        parallel = check_exact(bad, BooleanFunction.verify(4), workers=2)
        assert serial == parallel


def _flipped_at_last_word(f):
    table = f.values().copy()
    table[-1] ^= 1
    return BooleanFunction.from_table(table)


def _variables_permuted(n, seed):
    """The n-variable builder output with its variables renamed by a seeded
    permutation, so that stage 1 no longer queries x1 and x2; and the
    verifier function renamed the same way, which it computes."""
    alg = build_algorithm(n)
    perm = np.concatenate(([0], np.random.default_rng(seed).permutation(n) + 1))
    stages = [(st.unitary, perm[st.query]) for st in alg.stages]
    renamed = QueryAlgorithm(n, alg.start, stages, alg.final_unitary, alg.labels)
    words = np.arange(1 << n)
    bits = (words[:, None] >> (n - np.arange(1, n + 1))) & 1
    # Variable k of the renamed algorithm plays the role of variable perm[k].
    original = np.zeros_like(words)
    for k in range(1, n + 1):
        original |= bits[:, k - 1] << (n - perm[k])
    return renamed, BooleanFunction.from_table(BooleanFunction.verify(n).values()[original])


def _final_scaled(n, factor):
    alg = build_algorithm(n)
    return QueryAlgorithm(n, alg.start, alg.stages, alg.final_unitary * factor, alg.labels)


def _labels_complemented(n):
    alg = build_algorithm(n)
    return QueryAlgorithm(n, alg.start, alg.stages, alg.final_unitary, 1 - alg.labels)


def _last_stage_requeried(n, var_map):
    """Builder output whose last stage queries by `var_map` instead."""
    alg = build_algorithm(n)
    stages = list(alg.stages[:-1]) + [(alg.stages[-1].unitary, var_map)]
    return QueryAlgorithm(n, alg.start, stages, alg.final_unitary, alg.labels)


def _labels_uniform(n, label):
    """Builder output whose every output row is labelled `label`."""
    alg = build_algorithm(n)
    return QueryAlgorithm(n, alg.start, alg.stages, alg.final_unitary,
                          np.full(alg.dim, label, dtype=np.uint8))


def _stage_undone():
    """The n = 4 builder's first stage with no query, then its transpose:
    the state returns to basis state 0, and the term the second stage moves
    to row 2 merges to exactly 0, while row 2 stays reachable."""
    alg = build_algorithm(4)
    u1 = alg.stages[0].unitary
    return QueryAlgorithm(4, alg.start, [(u1, [0] * 4), (u1.T, alg.stages[1].query)],
                          alg.final_unitary, alg.labels)


def _mixed_twice(n):
    """Builder output with two query-free stages, a seeded random orthogonal
    Q and then Q.T, before its final map. It computes the same function,
    but every term spreads over all K columns twice, so its live terms grow
    with the number of free variables, as a dense document's do."""
    alg = build_algorithm(n)
    q = _random_orthogonal(np.random.default_rng(0), alg.dim)
    free = [0] * alg.dim
    return QueryAlgorithm(n, alg.start, [*alg.stages, (q, free), (q.T, free)],
                          alg.final_unitary, alg.labels)


def _random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _random_algorithm(seed, perturbed=()):
    """A seeded 7-variable, 3-query algorithm on 8 amplitudes: random
    orthogonal stage and final matrices, a start state with zero entries,
    random var maps that never query x4 or x7, and a random truth table.
    The matrices named in `perturbed` ("stages"; "early-stages", all but
    the last; "final") get 1e-3 noise, so they are no longer orthogonal."""
    rng = np.random.default_rng(seed)
    n, dim = 7, 8

    def matrix(noisy):
        m = _random_orthogonal(rng, dim)
        return m + 1e-3 * rng.standard_normal((dim, dim)) if noisy else m

    start = np.zeros(dim)
    start[[1, 4, 6]] = rng.standard_normal(3)
    start /= np.linalg.norm(start)
    queried = np.array([0, 1, 2, 3, 5, 6])
    stages = [(matrix("stages" in perturbed or ("early-stages" in perturbed and i < 2)),
               rng.choice(queried, size=dim)) for i in range(3)]
    labels = np.zeros(dim, dtype=np.uint8)
    labels[rng.permutation(dim)[:3]] = 1
    alg = QueryAlgorithm(n, start, stages, matrix("final" in perturbed), labels)
    return alg, BooleanFunction.from_table(rng.integers(0, 2, size=1 << n))


_RANDOM_VARIANTS = {"orthogonal": (), "perturbed-final": ("final",),
                    "perturbed-stages": ("stages",), "perturbed-early-stages": ("early-stages",)}


def _sweep_cases():
    for n in (2, 4, 8, 12):
        f = BooleanFunction.verify(n)
        yield f"builder-n{n}", build_algorithm(n), f, True
        yield f"builder-n{n}-flipped", build_algorithm(n), _flipped_at_last_word(f), True
    renamed, g = _variables_permuted(8, seed=3)
    yield "out-of-order", renamed, g, True
    # Fails; the counterexample must still be the lexicographically first.
    yield "out-of-order-vs-verify", renamed, BooleanFunction.verify(8), True
    # Labels 0 are the smaller set here: p0 is computed, p1 derived.
    yield "complemented-labels", _labels_complemented(6), \
        BooleanFunction.from_table(1 - BooleanFunction.verify(6).values()), True
    yield "final-scaled", _final_scaled(6, 1.0 + 1e-6), BooleanFunction.verify(6), False
    alg = build_algorithm(6)
    final = np.array(alg.final_unitary)
    final[3, 5] *= -1.0
    yield "final-sign-flip", QueryAlgorithm(6, alg.start, alg.stages, final, alg.labels), \
        BooleanFunction.verify(6), False
    base = build_algorithm(4)
    for row, col in [(0, 0), (0, 2), (2, 0), (2, 2)]:
        mutated = np.array(base.stages[0].unitary)
        mutated[row, col] *= -1.0
        yield f"stage-flip-{row}{col}", QueryAlgorithm(
            4, base.start, [(mutated, base.stages[0].query), base.stages[1]],
            base.final_unitary, base.labels), BooleanFunction.verify(4), True
    # Re-queried variables cancel (s**2 = 1) and equal monomials merge.
    yield "last-stage-requeries-x1", _last_stage_requeried(6, [5, 1, 6, 5, 1, 6, 5, 6]), \
        BooleanFunction.verify(6), True
    # No new variable in the last stage.
    yield "last-stage-only-earlier-vars", _last_stage_requeried(6, [3, 1, 4, 2, 4, 1, 3, 2]), \
        BooleanFunction.verify(6), True
    yield "last-stage-interleaved", _last_stage_requeried(6, [6, 0, 5, 3, 0, 6, 4, 5]), \
        BooleanFunction.verify(6), True
    # No output row is kept: one probability is 0 on every word, the other
    # |start|^2.
    yield "uniform-labels-0", _labels_uniform(6, 0), \
        BooleanFunction.from_table(np.zeros(1 << 6, dtype=np.uint8)), True
    yield "uniform-labels-1", _labels_uniform(6, 1), BooleanFunction.verify(6), True
    yield "stage-undone", _stage_undone(), BooleanFunction.verify(4), True
    # A zeroed last stage reaches no column: every word fails with p = 0.
    alg = build_algorithm(6)
    yield "last-stage-zero", QueryAlgorithm(
        6, alg.start, [*alg.stages[:-1], (np.zeros((8, 8)), alg.stages[-1].query)],
        alg.final_unitary, alg.labels), BooleanFunction.verify(6), False
    # Any perturbed matrix keeps every output row.
    for name, perturbed in _RANDOM_VARIANTS.items():
        yield f"random-{name}", *_random_algorithm(11, perturbed), not perturbed
    # Non-orthogonal stages change each word's |s|^2; against the zero
    # function the minimum is over p0 alone.
    zero = BooleanFunction.from_table(np.zeros(1 << 7, dtype=np.uint8))
    yield "random-perturbed-stages-vs-zero", _random_algorithm(11, ("stages",))[0], zero, False
    yield "random-perturbed-early-stages-vs-zero", \
        _random_algorithm(11, ("early-stages",))[0], zero, False


_SWEEP_CASES = list(_sweep_cases())


class TestSweepKernel:
    """check_exact runs one kernel for every algorithm; pin it to `run`."""

    @pytest.mark.parametrize("alg,f,labelled_rows", [c[1:] for c in _SWEEP_CASES],
                             ids=[c[0] for c in _SWEEP_CASES])
    def test_matches_naive_run(self, alg, f, labelled_rows):
        arrays = _sweep_arrays(alg)
        # Only the smaller label set's rows are kept, with the other
        # probability taken as |start|^2 minus theirs, when every stage and
        # the final matrix keep norms on the reachable columns.
        assert (arrays.rest is not None) == labelled_rows
        # Degree bound: T queries multiply in at most T signs.
        masks = _kernels._propagate(arrays, 0, 1 << alg.n_vars)[0]
        assert max((bin(m).count("1") for m in masks.tolist()), default=0) <= alg.t_queries
        report = check_exact(alg, f)
        counterexample, min_prob = refdata.naive_check(alg, f)
        assert report.counterexample == counterexample
        assert report.exact == (counterexample is None)
        assert report.min_probability == pytest.approx(min_prob, abs=1e-12)

    @pytest.mark.parametrize("alg", [c[1] for c in _SWEEP_CASES]
                             + [_random_algorithm(11, p)[0] for p in _RANDOM_VARIANTS.values()],
                             ids=[c[0] for c in _SWEEP_CASES]
                             + [f"random-{name}" for name in _RANDOM_VARIANTS])
    def test_unitary_within_implies_labelled_rows(self, alg):
        # One residual: the sweep takes it on the reached columns, a
        # principal submatrix of the Gram error that unitary_within takes
        # on all of them, whose row sums are never larger.
        assert not alg.unitary_within() or _sweep_arrays(alg).rest is not None

    @pytest.mark.parametrize("n", range(2, 17, 2))
    def test_builder_amplitude_is_pair_product(self, n):
        # The one kept amplitude is prod_i (s_{2i-1} + s_{2i}) / 2: one
        # monomial per choice of a variable from each pair, each at 2**-T.
        t = n // 2
        masks, rows, coeffs = _kernels._propagate(_sweep_arrays(build_algorithm(n)), 0, 1 << n)
        expected = sorted(sum(1 << (n - 2 * i - pick) for i, pick in enumerate(picks))
                          for picks in itertools.product((1, 2), repeat=t))
        assert masks.tolist() == expected
        assert rows.tolist() == [0] * (1 << t)
        np.testing.assert_allclose(coeffs, 2.0 ** -t, rtol=1e-12)

    @pytest.mark.parametrize("variant", list(_RANDOM_VARIANTS))
    def test_every_word_matches_run(self, variant):
        # Single-word sweeps expose both probabilities of each word.
        alg, _ = _random_algorithm(11, _RANDOM_VARIANTS[variant])
        arrays = _sweep_arrays(alg)
        for w in range(1 << alg.n_vars):
            p0, p1 = measure(run(alg, format(w, f"0{alg.n_vars}b")).final, alg.labels)
            for bit, p in ((0, p0), (1, p1)):
                _, swept = sweep_range(*arrays, alg.n_vars, w, w + 1,
                                       np.array([bit], dtype=np.uint8), 1e-9)
                assert swept == pytest.approx(p, abs=1e-12)

    def test_only_reachable_columns_are_carried(self, alg4):
        arrays = _sweep_arrays(alg4)
        r = 1.0 / np.sqrt(2.0)
        # Stage 1 moves basis state 0 to 0 and 2 and queries x1 and x2
        # there; stage 2 moves 0 to 0 and 1 and 2 to 2 and 3, which query x3
        # and x4. Entries are grouped by column: column c's are at
        # [ptr[c], ptr[c + 1]).
        (ptr1, rows1, values1, bits1), (ptr2, rows2, values2, bits2) = arrays.stages
        assert (ptr1.tolist(), rows1.tolist(), bits1.tolist()) == \
            ([0, 2, 2, 2, 2], [0, 2], [0b1000, 0b0100])
        assert (ptr2.tolist(), rows2.tolist(), bits2.tolist()) == \
            ([0, 2, 2, 4, 4], [0, 1, 2, 3], [0b0010, 0b0001] * 2)
        np.testing.assert_allclose(values1, [r, r], rtol=1e-15)
        np.testing.assert_allclose(values2, [r, r, r, r], rtol=1e-15)
        # One final row is labelled 1, kept as row 0 with one entry per
        # column and no query, and the other probability is |start|^2 minus
        # its.
        ptr, rows, values, bits = arrays.final_t
        assert (ptr.tolist(), rows.tolist(), bits.tolist()) == ([0, 1, 2, 3, 4], [0] * 4, [0] * 4)
        np.testing.assert_allclose(values, 0.5, rtol=1e-15)
        assert arrays.rest == (0, 1.0)
        # The monomials {x1,x3}, {x2,x3}, {x1,x4} and {x2,x4}, each at 1/4.
        masks, rows, coeffs = _kernels._propagate(arrays, 0, 1 << 4)
        assert masks.tolist() == sorted([0b1010, 0b0110, 0b1001, 0b0101])
        assert rows.tolist() == [0] * 4
        np.testing.assert_allclose(coeffs, 0.25, rtol=1e-12)

    def test_exact_zeros_are_dropped_while_their_rows_stay_reached(self):
        # The term that the undone stage moves to row 2 merges to exactly 0.
        # Row 2 stays reachable, so with the identity as the final map its
        # entry is kept, but no term reaches it.
        alg = _stage_undone()
        arrays = _sweep_arrays(QueryAlgorithm(4, alg.start, alg.stages, np.eye(4), [1, 0, 1, 0]))
        assert arrays.final_t[0].tolist() == [0, 1, 1, 2, 2]
        masks, rows, _ = _kernels._propagate(arrays, 0, 1 << 4)
        assert (masks.tolist(), rows.tolist()) == ([0b0010], [0])

    @pytest.mark.parametrize("n", range(2, 21, 2))
    def test_builder_stages_carry_only_their_reached_entries(self, n):
        # Stage i mixes the 2**(i-1) columns reached before it with as many
        # new ones: 2**i entries, not a dense block. The final matrix keeps
        # the K entries of its one kept row.
        arrays = _sweep_arrays(build_algorithm(n))
        assert [rows.size for _, rows, _, _ in arrays.stages] == \
            [1 << i for i in range(1, n // 2 + 1)]
        assert arrays.final_t[1].tolist() == [0] * (1 << (n // 2))

    @pytest.mark.parametrize("alg,f", [c[1:3] for c in _SWEEP_CASES],
                             ids=[c[0] for c in _SWEEP_CASES])
    def test_one_factor_final_sweeps_alike(self, alg, f):
        # The whole final matrix as one factor: the factor bound then is
        # the matrix's own residual, and the kept rows are cut from it, not
        # from factors. Rest flags and reports must not change, bit for bit.
        whole = QueryAlgorithm(alg.n_vars, alg.start, alg.stages, alg.final_unitary, alg.labels)
        assert (_sweep_arrays(whole).rest is None) == (_sweep_arrays(alg).rest is None)
        assert check_exact(whole, f) == check_exact(alg, f)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_random_kron_final_sweeps_like_its_product(self, seed, noise):
        # A random algorithm whose final matrix is a Kronecker product of
        # seeded orthogonal 4 x 4 and 2 x 2 factors, the first with noise:
        # as factors or as one dense product, the same rest flag and report.
        alg, f = _random_algorithm(seed)
        rng = np.random.default_rng(100 + seed)
        a = _random_orthogonal(rng, 4) + noise * rng.standard_normal((4, 4))
        b = _random_orthogonal(rng, 2)
        factored = QueryAlgorithm(alg.n_vars, alg.start, alg.stages,
                                  Kron((Nonzeros.of(a), Nonzeros.of(b)), (4, 2)), alg.labels)
        whole = QueryAlgorithm(alg.n_vars, alg.start, alg.stages, np.kron(a, b), alg.labels)
        assert factored.final_unitary.tobytes() == whole.final_unitary.tobytes()
        rest = _sweep_arrays(factored).rest
        assert (rest is None) == (_sweep_arrays(whole).rest is None) == (noise > 0)
        assert check_exact(factored, f) == check_exact(whole, f)
        assert factored.unitary_within() == whole.unitary_within() == (noise == 0)

    def test_concurrent_callers_get_their_own_reports(self, monkeypatch):
        # 16-word blocks, so that two concurrent checks interleave.
        walked = _record_blocks(monkeypatch, 16)
        n = 16
        alg = build_algorithm(n)
        functions = [BooleanFunction.verify(n), _flipped_at_last_word(BooleanFunction.verify(n))]
        serial = [check_exact(alg, f) for f in functions]
        assert serial[1].counterexample == "1" * n
        assert len(walked) == 2 * (1 << n) // 16
        results = [None, None]
        barrier = threading.Barrier(2)

        def call(i):
            barrier.wait()
            results[i] = check_exact(alg, functions[i])

        threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial
        assert check_exact(alg, functions[1], workers=2) == serial[1]


def _record_blocks(monkeypatch, words=None):
    """Record the (base, size) of each block sweep_range walks. With
    `words`, blocks hold at most that many words, so that small sweeps fold
    in the signs of many different top bits."""
    walked = []
    blocks = _kernels._blocks

    def counted(arrays, lo, hi):
        for block in blocks(arrays, lo, hi):
            walked.append(block[:2])
            yield block

    if words is not None:
        monkeypatch.setattr(_kernels, "_block_words", lambda rows: words)
    monkeypatch.setattr(_kernels, "_blocks", counted)
    return walked


def _assert_same_verdict(report, other):
    """Equal reports up to min_probability, whose sums run in another order
    when the words are walked in other blocks or the polynomial split
    differently."""
    assert (report.exact, report.counterexample, report.inputs_checked) == \
        (other.exact, other.counterexample, other.inputs_checked)
    assert report.min_probability == pytest.approx(other.min_probability, abs=1e-12)


_SPLIT_CASES = ("builder-n10", "builder-n10-flipped", "random-perturbed-stages")


def _split_case(case):
    return {
        "builder-n10": (build_algorithm(10), BooleanFunction.verify(10)),
        "builder-n10-flipped": (build_algorithm(10),
                                _flipped_at_last_word(BooleanFunction.verify(10))),
        "random-perturbed-stages": _random_algorithm(11, ("stages",)),
    }[case]


def _count_propagations(monkeypatch, terms):
    """Bound propagations at `terms` live terms, below the whole cube's, by
    charging each term SWEEP_BUDGET // terms floats, so that every block is
    propagated on its own; returns the list of (base, size, fits) calls."""
    calls = []
    propagate = _kernels._propagate

    def counted(arrays, base, size):
        poly = propagate(arrays, base, size)
        calls.append((base, size, poly is not None))
        return poly

    monkeypatch.setattr(_kernels, "_TERM_FLOATS", _kernels.SWEEP_BUDGET // terms)
    monkeypatch.setattr(_kernels, "_propagate", counted)
    return calls


class TestBlockWalk:
    """Reports do not depend on how sweep_range's blocks split the words or
    the polynomial, and `workers=` is accepted and has no effect."""

    def test_builder_n16_reports_equal_serial(self):
        alg = build_algorithm(16)
        for f in (BooleanFunction.verify(16), _flipped_at_last_word(BooleanFunction.verify(16))):
            assert check_exact(alg, f, workers=2) == check_exact(alg, f)

    def test_loaded_document_reports_equal_serial(self, tmp_path, monkeypatch):
        path = tmp_path / "alg10.json"
        save_algorithm(build_algorithm(10), path)
        alg = load_algorithm(path)
        for f in (BooleanFunction.verify(10), _flipped_at_last_word(BooleanFunction.verify(10))):
            whole = check_exact(alg, f)
            with monkeypatch.context() as m:
                walked = _record_blocks(m, 16)
                blocked = check_exact(alg, f)
                assert len(walked) == (1 << 10) // 16
                assert check_exact(alg, f, workers=2) == blocked
            _assert_same_verdict(blocked, whole)
            assert whole.counterexample == refdata.naive_check(alg, f)[0]

    def test_non_orthogonal_last_stage_reports_equal_serial(self, monkeypatch):
        alg, f = _random_algorithm(11, ("stages",))
        whole = check_exact(alg, f)
        walked = _record_blocks(monkeypatch, 16)
        report = check_exact(alg, f, workers=2)
        assert len(walked) >= 2
        assert report == check_exact(alg, f)
        _assert_same_verdict(report, whole)
        assert report.counterexample == refdata.naive_check(alg, f)[0]

    @pytest.mark.parametrize("case", _SPLIT_CASES)
    @pytest.mark.parametrize("words", [None, 16])
    def test_check_exact_equals_chunked_replay(self, case, words, monkeypatch):
        # The benchmark replays check_exact as sweep_range over the
        # _chunk_grid chunks, reduced to the first failure and the least
        # probability; chunks are then whole blocks, so reports are equal.
        alg, f = _split_case(case)
        if words is not None:
            monkeypatch.setattr(_kernels, "_block_words", lambda rows: words)
        arrays = _sweep_arrays(alg)
        chunks = model._chunk_grid(alg.n_vars, alg.dim)
        assert len(chunks) == (1 if words is None else (1 << alg.n_vars) // words)
        results = [sweep_range(*arrays, alg.n_vars, lo, hi, f.values()[lo:hi], EXACT_TOL)
                   for lo, hi in chunks]
        fails = [first for first, _ in results if first >= 0]
        report = check_exact(alg, f)
        assert report.counterexample == (format(min(fails), f"0{alg.n_vars}b") if fails else None)
        assert report.min_probability == min(p for _, p in results)

    @pytest.mark.parametrize("case", _SPLIT_CASES)
    def test_split_propagation_matches_whole(self, case, monkeypatch):
        alg, f = _split_case(case)
        whole = check_exact(alg, f)
        assert _kernels._propagate(_sweep_arrays(alg), 0, 1 << alg.n_vars) is not None
        # Each of these holds K live terms after some stage, in any block:
        # below that, every block is propagated on its own, with its top
        # variables substituted, halved until it fits, here to single words.
        calls = _count_propagations(monkeypatch, alg.dim - 1)
        split = check_exact(alg, f)
        assert calls[0] == (0, 1 << alg.n_vars, False)
        assert sum(fits for _, _, fits in calls) >= 2
        _assert_same_verdict(split, whole)
        assert split.counterexample == refdata.naive_check(alg, f)[0]

    @pytest.mark.parametrize("factor", [4, 2])
    def test_unaligned_range_with_split_propagation(self, factor, monkeypatch):
        # [17, 40) starts off any alignment and every block is propagated on
        # its own. This algorithm's live terms grow with a block's free
        # variables: 4 * K of them for 8 words and 2 * K for 4 or 2, so under
        # 2 * K its 8-word blocks are also halved. The walk must still cover
        # every word once, in order, and match the naive run word by word.
        alg = _mixed_twice(10)
        expected = BooleanFunction.verify(10).values().copy()
        expected[30] ^= 1
        probs = [measure(run(alg, format(w, "010b")).final, alg.labels) for w in range(17, 40)]
        calls = _count_propagations(monkeypatch, factor * alg.dim)
        arrays = _sweep_arrays(alg)
        assert _kernels._propagate(arrays, 0, 1 << 10) is None
        walked = _record_blocks(monkeypatch)
        first, p_min = sweep_range(*arrays, 10, 17, 40, expected[17:40], EXACT_TOL)
        assert first == 30
        assert p_min == pytest.approx(min(p[expected[w]] for w, p in zip(range(17, 40), probs)),
                                      abs=1e-12)
        # Aligned blocks, each halved once when 8 words do not fit.
        eights = [(24, 8), (32, 8)] if factor == 4 else [(24, 4), (28, 4), (32, 4), (36, 4)]
        assert walked == [(17, 1), (18, 2), (20, 4), *eights]
        assert [(base, size) for base, size, fits in calls[1:] if not fits] == \
            ([] if factor == 4 else [(24, 8), (32, 8)])


class TestQueryAlgorithmValidation:
    def test_rejects_unnormalized_start(self):
        # The start's norm is behaviour, like a matrix's unitarity: a start
        # of [1, 1] loads, and unitary_within and check_exact reject it.
        alg = QueryAlgorithm(2, [1.0, 1.0], [(np.eye(2), [1, 2])],
                             np.eye(2), [1, 0])
        assert alg.unitary_within() is False
        report = check_exact(alg, BooleanFunction.verify(2))
        assert (report.exact, report.counterexample) == (False, "00")

    def test_rejects_var_beyond_n_vars(self):
        with pytest.raises(ValueError):
            QueryAlgorithm(2, [1.0, 0.0], [(np.eye(2), [3, 0])],
                           np.eye(2), [1, 0])
        # n_vars itself must be an integer >= 1: 2.7 was once stored as 2.
        for n_vars, message in [(2.7, "an integer, got 2.7"), (2.0, "an integer, got 2.0"),
                                (True, "an integer, got True"), (np.float64(2), "an integer"),
                                (0, "positive, got 0"), (np.int64(-1), "positive, got -1")]:
            with pytest.raises(ValueError, match=f"^n_vars must be {message}"):
                QueryAlgorithm(n_vars, [1.0, 0.0], [(np.eye(2), [1, 0])], np.eye(2), [1, 0])
        alg = QueryAlgorithm(np.int64(2), [1.0, 0.0], [(np.eye(2), [1, 2])], np.eye(2), [1, 0])
        assert type(alg.n_vars) is int and alg.n_vars == 2

    def test_rejects_query_length_mismatch(self):
        with pytest.raises(ValueError):
            QueryAlgorithm(2, [1.0, 0.0], [(np.eye(2), [1, 2, 0, 0])],
                           np.eye(2), [1, 0])

    def test_rejects_non_binary_labels(self):
        for labels in ([1, 2], [1, -1], [1.0, 0.5], [1.0, np.nan], np.array(["1", "0"])):
            with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
                QueryAlgorithm(2, [1.0, 0.0], [(np.eye(2), [1, 2])], np.eye(2), labels)
        for labels in ([1.0, 0.0], [True, False], np.array([1, 0], dtype=np.int8)):
            alg = QueryAlgorithm(2, [1.0, 0.0], [(np.eye(2), [1, 2])], np.eye(2), labels)
            assert (alg.labels.dtype, alg.labels.tolist()) == (np.uint8, [1, 0])

    @pytest.mark.parametrize("where", ["start", "stage", "final"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, where, value):
        start, unitary, final = np.array([1.0, 0.0]), np.eye(2), np.eye(2)
        {"start": start, "stage": unitary[1], "final": final[1]}[where][1] = value
        with pytest.raises(ValueError):
            QueryAlgorithm(2, start, [(unitary, [1, 2])], final, [1, 0])

    def test_rejects_empty_stage_list(self):
        with pytest.raises(ValueError):
            QueryAlgorithm(2, [1.0, 0.0], [], np.eye(2), [1, 0])

    def test_rejects_mismatched_matrix_dimension(self):
        with pytest.raises(ValueError):
            QueryAlgorithm(2, [1.0, 0.0], [(np.eye(4), [1, 2])],
                           np.eye(2), [1, 0])

    @pytest.mark.parametrize("rows,cols", [([0, 2], [0, 1]), ([1, 0], [0, 1]), ([0, 0], [1, 1]),
                                           ([0, -1], [0, 1]), ([0], [0, 1])])
    def test_rejects_nonzeros_outside_or_out_of_order(self, rows, cols):
        final = Nonzeros(np.array(rows), np.array(cols), np.ones(len(rows)))
        with pytest.raises(ValueError, match="distinct entries below 2 in row-major order"):
            QueryAlgorithm(2, [1.0, 0.0], [(np.eye(2), [1, 2])], final, [1, 0])

    def test_accepts_nonzeros_and_stages(self, alg4):
        final = Nonzeros(*alg4.final.factors[0])
        again = QueryAlgorithm(4, alg4.start, alg4.stages, final, alg4.labels)
        # Stored arrays are shared, not copied.
        assert all(a is b for a, b in zip(again.stages[0].nonzeros, alg4.stages[0].nonzeros))
        assert again.final_unitary.tobytes() == alg4.final_unitary.tobytes()

    def test_arrays_are_immutable(self, alg4):
        with pytest.raises(ValueError):
            alg4.start[0] = 2.0
        with pytest.raises(ValueError):
            alg4.stages[0].unitary[0, 0] = 2.0
        with pytest.raises(ValueError):
            alg4.final_unitary[0, 0] = 2.0
        for array in (*alg4.stages[0].nonzeros, alg4.stages[0].query, *alg4.final.factors[0]):
            with pytest.raises(ValueError):
                array[0] = 2
        # A deep copy re-runs the constructor, so its var maps and labels are
        # read-only too: no write reaches check_exact.
        c = copy.deepcopy(alg4)
        for array in (c.stages[0].query, c.labels, c.start):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = 1
        f = BooleanFunction.verify(4)
        assert check_exact(c, f) == check_exact(alg4, f)

    @pytest.mark.parametrize("dims", [(), (2, 2, 2), (4, 1)])
    def test_rejects_kron_sides_that_do_not_multiply_to_dim(self, dims):
        h = Nonzeros.of(np.eye(2))
        message = r"side at least 2 whose product is 4, got \d factors of sides"
        with pytest.raises(ValueError, match=message):
            QueryAlgorithm(2, [1.0, 0.0, 0.0, 0.0], [(np.eye(4), [1, 2, 0, 0])],
                           Kron((h,) * len(dims), dims), [1, 0, 0, 0])

    def test_unitary_within(self, alg4):
        assert alg4.unitary_within()
        damaged = QueryAlgorithm(4, alg4.start,
                                 [(np.eye(4), [1, 0, 2, 0])],
                                 np.full((4, 4), 0.5), alg4.labels)
        assert not damaged.unitary_within()
