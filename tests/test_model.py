import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qverify import (
    BooleanFunction,
    QueryAlgorithm,
    QueryEntry,
    QuerySpec,
    build_algorithm,
    check_exact,
    compute,
    measure,
    realize_query,
    run,
    run_batch,
)
from qverify.model import FIXED, _sweep_arrays

import refdata


class TestQuerySpec:
    def test_entries_round_trip(self):
        spec = QuerySpec([1, 0, 2, 0])
        assert spec.entries == (QueryEntry(1), FIXED, QueryEntry(2), FIXED)
        assert QuerySpec.from_entries(spec.entries) == spec

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            QuerySpec([1, -1])

    def test_entry_rejects_zero_index(self):
        with pytest.raises(ValueError):
            QueryEntry(0)

    def test_max_var(self):
        assert QuerySpec([0, 0, 7, 2]).max_var == 7


class TestRealizeQuery:
    def test_stage_one_of_four_bit_instance(self):
        spec = QuerySpec([1, 0, 2, 0])
        assert np.array_equal(realize_query(spec, "1100"),
                              np.diag([-1.0, 1.0, -1.0, 1.0]))

    def test_all_fixed_is_identity(self):
        spec = QuerySpec([0, 0, 0, 0])
        assert np.array_equal(realize_query(spec, "1011"), np.eye(4))

    def test_six_bit_stage_three_on_zero_word(self):
        spec = QuerySpec(refdata.SIX_BIT_Q3_VARS)
        assert np.array_equal(realize_query(spec, "000000"), np.eye(8))

    def test_word_may_exceed_queried_variables(self):
        spec = QuerySpec([1, 0])
        assert np.array_equal(realize_query(spec, "100"), np.diag([-1.0, 1.0]))

    def test_var_index_out_of_range(self):
        with pytest.raises(ValueError):
            realize_query(QuerySpec([5, 0]), "1100")

    def test_always_unitary(self, rng):
        spec = QuerySpec(rng.integers(0, 7, size=8))
        for _ in range(10):
            word = "".join(str(b) for b in rng.integers(0, 2, size=6))
            q = realize_query(spec, word)
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

    def test_run_batch_matches_run(self, alg6):
        # Batched rows go through dgemm instead of dgemv, so agreement is
        # up to accumulation order rather than bitwise.
        words = np.array([0, 5, 33, 63])
        snapshots = run_batch(alg6, words)
        for row, w in enumerate(words):
            trace = run(alg6, format(w, "06b"))
            for step, snap in enumerate(snapshots):
                assert np.abs(snap[row] - trace.states[step]).max() <= 1e-12


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
        with pytest.raises(ValueError):
            measure(np.zeros(2), [2, 0])

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
        spec = QuerySpec([0, 0])
        alg = QueryAlgorithm(2, [refdata.R, refdata.R], [(np.eye(2), spec)],
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
        spec = QuerySpec([1, 0])
        alg = QueryAlgorithm(26, [1.0, 0.0], [(np.eye(2), spec)], np.eye(2), [1, 0])
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
    stages = [(st.unitary, QuerySpec(perm[st.query.var_map])) for st in alg.stages]
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


_SWEEP_CASES = list(_sweep_cases())


class TestSweepKernel:
    """check_exact runs one kernel for every algorithm; pin it to `run`."""

    @pytest.mark.parametrize("alg,f,orthogonal_final", [c[1:] for c in _SWEEP_CASES],
                             ids=[c[0] for c in _SWEEP_CASES])
    def test_matches_naive_run(self, alg, f, orthogonal_final):
        final_t = _sweep_arrays(alg)[3]
        # An orthogonal final matrix keeps only the smaller label set's rows.
        assert (final_t.shape[1] < alg.dim) == orthogonal_final
        report = check_exact(alg, f)
        counterexample, min_prob = refdata.naive_check(alg, f)
        assert report.counterexample == counterexample
        assert report.exact == (counterexample is None)
        assert report.min_probability == pytest.approx(min_prob, abs=1e-12)

    def test_only_reachable_columns_are_carried(self, alg4):
        start, stage_uts, var_maps, _, _ = _sweep_arrays(alg4)
        # Stage 1 mixes basis states 0 and 2; stage 2 reaches all four.
        assert start.shape == (1,)
        assert [ut.shape for ut in stage_uts] == [(1, 2), (2, 4)]
        assert var_maps[0].tolist() == [1, 2]

    def test_concurrent_callers_get_their_own_reports(self):
        # n = 16 sweeps in 8 chunks, so two concurrent checks interleave.
        n = 16
        alg = build_algorithm(n)
        functions = [BooleanFunction.verify(n), _flipped_at_last_word(BooleanFunction.verify(n))]
        serial = [check_exact(alg, f) for f in functions]
        assert serial[1].counterexample == "1" * n
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


class TestQueryAlgorithmValidation:
    def test_rejects_unnormalized_start(self):
        with pytest.raises(ValueError):
            QueryAlgorithm(2, [1.0, 1.0], [(np.eye(2), QuerySpec([1, 2]))],
                           np.eye(2), [1, 0])

    def test_rejects_var_beyond_n_vars(self):
        with pytest.raises(ValueError):
            QueryAlgorithm(2, [1.0, 0.0], [(np.eye(2), QuerySpec([3, 0]))],
                           np.eye(2), [1, 0])

    def test_rejects_query_length_mismatch(self):
        with pytest.raises(ValueError):
            QueryAlgorithm(2, [1.0, 0.0], [(np.eye(2), QuerySpec([1, 2, 0, 0]))],
                           np.eye(2), [1, 0])

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            QueryAlgorithm(2, [1.0, 0.0], [(np.eye(2), QuerySpec([1, 2]))],
                           np.eye(2), [1, 2])
        with pytest.raises(ValueError):
            QueryAlgorithm(2, [1.0, 0.0], [(np.eye(2), QuerySpec([1, 2]))],
                           np.eye(2), [1, -1])

    @pytest.mark.parametrize("where", ["start", "stage", "final"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, where, value):
        start, unitary, final = np.array([1.0, 0.0]), np.eye(2), np.eye(2)
        {"start": start, "stage": unitary[1], "final": final[1]}[where][1] = value
        with pytest.raises(ValueError):
            QueryAlgorithm(2, start, [(unitary, QuerySpec([1, 2]))], final, [1, 0])

    def test_rejects_empty_stage_list(self):
        with pytest.raises(ValueError):
            QueryAlgorithm(2, [1.0, 0.0], [], np.eye(2), [1, 0])

    def test_rejects_mismatched_matrix_dimension(self):
        with pytest.raises(ValueError):
            QueryAlgorithm(2, [1.0, 0.0], [(np.eye(4), QuerySpec([1, 2]))],
                           np.eye(2), [1, 0])

    def test_arrays_are_immutable(self, alg4):
        with pytest.raises(ValueError):
            alg4.start[0] = 2.0
        with pytest.raises(ValueError):
            alg4.stages[0].unitary[0, 0] = 2.0

    def test_unitary_within(self, alg4):
        assert alg4.unitary_within(1e-12)
        damaged = QueryAlgorithm(4, alg4.start,
                                 [(np.eye(4), QuerySpec([1, 0, 2, 0]))],
                                 np.full((4, 4), 0.5), alg4.labels)
        assert not damaged.unitary_within(1e-12)
