import inspect
import pickle

import numpy as np
import pytest

from qverify import (
    BooleanFunction,
    ClassicalRunReport,
    QueryAlgorithm,
    bit_oracle,
    build_algorithm,
    classical_query_counts,
    classical_verify,
    classical_worst_case,
    sensitivity,
)
from qverify.boolfunc import table_sensitivity, verify_bits, verify_values_range

import refdata


class TestEvaluate:
    def test_four_bit_accepting_set(self):
        f = BooleanFunction.verify(4)
        accepting = {format(w, "04b") for w in range(16) if f.evaluate(format(w, "04b"))}
        assert accepting == refdata.FOUR_BIT_ACCEPTING

    def test_rejecting_word(self):
        assert BooleanFunction.verify(4).evaluate("0110") == 0

    def test_two_bit_pair(self):
        assert BooleanFunction.verify(2).evaluate("00") == 1

    @pytest.mark.parametrize("n", [64, 70])
    def test_verifier_past_63_variables(self, n):
        # Such words overflow int64; the verifier reads their bits.
        f = BooleanFunction.verify(n)
        assert f.evaluate("1" * n) == 1
        assert f.evaluate("01" + "1" * (n - 2)) == 0
        assert f.evaluate("1" * (n - 1) + "0") == 0
        assert f.evaluate("0" * (n - 2) + "11") == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BooleanFunction.verify(4).evaluate("011")

    def test_rejects_odd_arity(self):
        with pytest.raises(ValueError, match="^verifier arity must be even, got 5$"):
            BooleanFunction.verify(5)
        # So is an arity that is not an integer >= 1; below 1 keeps its message.
        for arity, message in [(2.0, "an integer, got 2.0"), (True, "an integer, got True"),
                               (np.float64(4), "an integer, got "), (np.bool_(True), "an integer"),
                               (0, "positive, got 0"), (np.int64(-2), "positive, got -2")]:
            with pytest.raises(ValueError, match=f"^verifier arity must be {message}"):
                BooleanFunction(arity)
        with pytest.raises(ValueError, match="^arity must be an integer, got True$"):
            BooleanFunction(True, table=[0, 1])
        f = BooleanFunction(np.int64(4))
        assert type(f.arity) is int and f.arity == 4

    def test_immutable_and_compared_by_identity(self):
        f = BooleanFunction(2, [0, 1, 1, 0])
        alg = build_algorithm(6)
        fields = [getattr(alg, name) for name in QueryAlgorithm.__slots__]
        for obj in (f, alg):
            for name in (*type(obj).__slots__, "other"):
                with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                    delattr(obj, name)
        with pytest.raises(ValueError):
            f.table[0] = 1
        assert (f.arity, f.table.tolist()) == (2, [0, 1, 1, 0])
        assert all(getattr(alg, name) is v for name, v in zip(QueryAlgorithm.__slots__, fields))
        assert f == f and f != BooleanFunction(2, [0, 1, 1, 0])
        assert alg == alg and alg != build_algorithm(6)
        # A copy is rebuilt through the constructor: equal content, new identity.
        g = pickle.loads(pickle.dumps(f))
        assert (g.arity, g.table.tolist(), g.table.flags.writeable) == (2, [0, 1, 1, 0], False)
        assert g != f and pickle.loads(pickle.dumps(BooleanFunction.verify(4))).table is None
        c = pickle.loads(pickle.dumps(alg))
        assert c != alg and (c.n_vars, c.labels.tolist()) == (6, alg.labels.tolist())

    def test_truth_table_lookup(self):
        f = BooleanFunction(2, [0, 1, 1, 0])
        assert [f.evaluate(w) for w in ("00", "01", "10", "11")] == [0, 1, 1, 0]

    def test_table_must_cover_the_cube(self):
        with pytest.raises(ValueError):
            BooleanFunction(arity=2, table=np.array([0, 1, 1]))

    def test_table_entries_must_be_bits(self):
        for table in ([0, 1, 2, 0], [0, 1, -1, 0], [0.0, 1.0, 0.5, 0.0], [0.0, 1.0, np.nan, 0.0],
                      np.array(["0", "1", "1", "0"]), np.array([0, 1, None, 0], dtype=object)):
            with pytest.raises(ValueError, match="^truth table entries must be 0 or 1$"):
                BooleanFunction(2, table)

    @pytest.mark.parametrize("table", [[0.0, 1.0, 1.0, -0.0], [False, True, True, False],
                                       np.array([0, 1, 1, 0], dtype=np.uint64),
                                       np.array([0, 1, 1.0, False], dtype=object)])
    def test_table_of_any_dtype_holding_bits_is_accepted(self, table):
        f = BooleanFunction(2, table)
        assert (f.table.dtype, f.table.tolist()) == (np.uint8, [0, 1, 1, 0])

    def test_table_is_a_read_only_copy_of_the_callers(self):
        table = np.array([0, 1, 1, 0], dtype=np.uint8)
        f = BooleanFunction(2, table)
        assert table.flags.writeable and not f.table.flags.writeable
        assert not np.shares_memory(f.table, table)
        table[0] = 1
        assert f.evaluate("00") == 0

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_values_match_per_word_evaluation(self, n):
        f = BooleanFunction.verify(n)
        values = f.values()
        for w in range(1 << n):
            assert values[w] == f.evaluate(format(w, f"0{n}b"))

    @pytest.mark.parametrize("n", [2, 4, 8, 12, 16, 20])
    def test_accepting_count(self, n):
        # Each pair is independently 00 or 11.
        assert int(BooleanFunction.verify(n).values().sum()) == 1 << (n // 2)

    def test_verifier_table_cap(self):
        # The same cap as every sweep, checked before the 2**26-bit table int.
        with pytest.raises(ValueError, match="^verifier truth table capped at 24 "
                                             "variables, got 26$"):
            BooleanFunction.verify(26).values()


class TestSensitivity:
    def test_four_bit_verifier(self):
        value, witness = sensitivity(BooleanFunction.verify(4))
        assert value == 4
        assert witness in refdata.FOUR_BIT_ACCEPTING

    def test_eight_bit_verifier(self):
        assert sensitivity(BooleanFunction.verify(8))[0] == 8

    def test_constant_function_has_zero_sensitivity(self):
        value, witness = sensitivity(BooleanFunction(3, [0] * 8))
        assert value == 0
        assert witness == "000"

    def test_witness_is_first_in_word_order(self):
        # Parity is fully sensitive everywhere, so the witness must be the
        # smallest word.
        table = [bin(w).count("1") % 2 for w in range(16)]
        value, witness = sensitivity(BooleanFunction(4, table))
        assert (value, witness) == (4, "0000")

    def test_arity_cap(self):
        with pytest.raises(ValueError):
            sensitivity(BooleanFunction.verify(26))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_the_definition_on_random_tables(self, n):
        rng = np.random.default_rng(n)
        for density in (0.01, 0.5, 0.99):
            table = (rng.random(1 << n) < density).astype(np.uint8)
            value, first = refdata.naive_sensitivity(table, n)
            assert table_sensitivity(table, n) == (value, first)
            assert sensitivity(BooleanFunction(n, table)) == \
                (value, format(first, f"0{n}b"))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_constant_tables(self, n, bit):
        table = np.full(1 << n, bit, dtype=np.uint8)
        assert refdata.naive_sensitivity(table, n) == (0, 0)
        assert table_sensitivity(table, n) == (0, 0)
        assert sensitivity(BooleanFunction(n, table)) == (0, "0" * n)

    @pytest.mark.parametrize("n,word", [(2, 3), (3, 5), (8, 200)])
    def test_maximum_first_reached_past_word_zero(self, n, word):
        # One accepted word: flipping any of its bits changes the value,
        # while every other word has at most one such flip.
        table = np.zeros(1 << n, dtype=np.uint8)
        table[word] = 1
        assert refdata.naive_sensitivity(table, n) == (n, word)
        assert table_sensitivity(table, n) == (n, word)
        assert sensitivity(BooleanFunction(n, table)) == (n, format(word, f"0{n}b"))

    @pytest.mark.parametrize("n", range(2, 21, 2))
    def test_verify_bits_is_the_verifier_table(self, n):
        bits = verify_bits(n)
        packed = np.frombuffer(bits.to_bytes(((1 << n) + 7) // 8, "little"), dtype=np.uint8)
        table = np.unpackbits(packed, bitorder="little")
        assert np.array_equal(table[:1 << n], verify_values_range(n, 0, 1 << n))
        assert not table[1 << n:].any()

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_verifier_sensitivity_equals_arity(self, n):
        f = BooleanFunction.verify(n)
        value, witness = sensitivity(f)
        assert value == n
        assert f.evaluate(witness) == 1


class TestClassicalVerify:
    def test_accepting_word_costs_all_queries(self):
        report = classical_verify(bit_oracle("1111"), 4)
        assert report.output == 1
        assert report.queries_used == 4
        assert report.query_sequence == (1, 2, 3, 4)

    def test_early_exit_on_first_unequal_pair(self):
        report = classical_verify(bit_oracle("0100"), 4)
        assert report.output == 0
        assert report.queries_used == 2
        assert report.query_sequence == (1, 2)

    def test_six_bit_accepting_word(self):
        report = classical_verify(bit_oracle("000000"), 6)
        assert report.output == 1
        assert report.queries_used == 6

    def test_report_fields(self):
        report = ClassicalRunReport(0, (1, 2))
        assert report == ClassicalRunReport(output=0, query_sequence=(1, 2))
        assert report == classical_verify(bit_oracle("0100"), 4)
        assert ClassicalRunReport._fields == ("output", "query_sequence")
        assert (report.output, report.query_sequence, report.queries_used) == (0, (1, 2), 2)
        assert ClassicalRunReport(1).queries_used == 0

    def test_rejects_odd_arity(self):
        with pytest.raises(ValueError):
            classical_verify(bit_oracle("111"), 3)

    def test_bad_oracle_value_propagates(self):
        with pytest.raises(ValueError):
            classical_verify(lambda k: 7, 4)

    @pytest.mark.parametrize("k", [0, -1, 5])
    def test_oracle_rejects_variables_outside_the_word(self, k):
        # Python's negative indexing once answered x0 and x-1 silently.
        with pytest.raises(ValueError, match=f"x{k} out of range for a 4-bit word"):
            bit_oracle("0001")(k)

    def test_oracle_shorter_than_arity_is_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            classical_verify(bit_oracle("00"), 4)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_agrees_with_evaluate_everywhere(self, n):
        f = BooleanFunction.verify(n)
        counts = classical_query_counts(n)
        for w in range(1 << n):
            word = format(w, f"0{n}b")
            report = classical_verify(bit_oracle(word), n)
            assert report.output == f.evaluate(word)
            assert report.queries_used == counts[w]

    @pytest.mark.parametrize("n", [2, 4, 8, 12, 16])
    def test_worst_case_is_the_full_word(self, n):
        assert classical_worst_case(n) == n

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_decision_tree_bounded_below_by_sensitivity(self, n):
        value, _ = sensitivity(BooleanFunction.verify(n))
        assert classical_worst_case(n) >= value

    def test_query_count_cap(self):
        with pytest.raises(ValueError, match="^exhaustive classical sweep capped at 24 "
                                             "variables, got 26$"):
            classical_query_counts(26)


def test_size_caps_live_in_one_module():
    from qverify import _kernels, boolfunc, builder, limits, model, serialize, strings, words
    # Every exhaustive sweep goes through words.check_sweep, under the one
    # sweep cap; a document's matrices, under the one document cap.
    assert (builder.MAX_BUILD_VARS, words.MAX_SWEEP_VARS, serialize.MAX_DOC_DIM,
            strings.MAX_STRING_LEN) == \
        (limits.MAX_BUILD_VARS, limits.MAX_SWEEP_VARS, limits.MAX_DOC_DIM,
         limits.MAX_STRING_LEN) == (24, 24, 1 << 12, 12)
    # serialize is MAX_DOC_DIM's one reader; the builder's dense views sit
    # under MAX_BUILD_VARS, and its Hadamard power is no transform.
    assert not any(hasattr(m, "MAX_DOC_DIM") for m in (builder, model, _kernels))
    assert not hasattr(builder, "_wht")
    assert not any(hasattr(m, "MAX_SWEEP_VARS") for m in (boolfunc, model))
    assert not hasattr(limits, "MAX_SENSITIVITY_VARS")
    assert not hasattr(limits, "MAX_DIM")
    # One sweep budget sizes sweep_range's blocks and bounds a propagation's
    # terms. model._chunk_grid is built on the same block size.
    assert limits.SWEEP_BUDGET == 1 << 21
    assert _kernels.SWEEP_BUDGET is limits.SWEEP_BUDGET
    assert (_kernels._block_words(4), _kernels._block_words(3)) == (1 << 19, 1 << 19)
    assert _kernels._block_words(0) == _kernels._block_words(1) == limits.SWEEP_BUDGET
    assert _kernels._block_words(limits.SWEEP_BUDGET + 1) == 1
    assert model._chunk_grid(24, 4)[:2] == [(0, 1 << 19), (1 << 19, 1 << 20)]
    assert model._chunk_grid(24, 3)[0] == (0, 1 << 19)
    assert model._chunk_grid(10, 1) == [(0, 1 << 10)]


def test_tolerances_live_in_one_module():
    from qverify import limits, model
    assert (limits.MATRIX_TOL, limits.EXACT_TOL) == (1e-12, 1e-9)
    # The same float objects: re-exported, not defined again with equal values.
    assert model.MATRIX_TOL is limits.MATRIX_TOL
    assert model.EXACT_TOL is limits.EXACT_TOL
    # Only is_unitary takes a tolerance; the algorithm's unitarity and a
    # start state's norm are read against the limits values.
    assert list(inspect.signature(model.QueryAlgorithm.unitary_within).parameters) == ["self"]
    assert list(inspect.signature(model.as_state).parameters) == ["v"]
    assert model.is_unitary.__defaults__ == (limits.MATRIX_TOL,)


def test_exactness_rule_is_two_sided_at_its_boundaries():
    import math

    from qverify import _kernels, limits, model, strings
    exact, tol = limits.exact, limits.EXACT_TOL
    # One rule, read by the sweep, decide and equal alike.
    assert _kernels.exact is model.exact is strings.exact is exact
    assert exact.__defaults__ == (tol,)
    low, high = 1.0 - tol, math.nextafter(tol, 1.0)
    assert exact(low, tol) is True
    assert exact(math.nextafter(low, 0.0), 0.0) is False
    assert exact(1.0, high) is False
    # The damaged n = 6 builder's first word: mass above 1 on the wanted
    # label does not make up for mass on the other.
    assert exact(1.1464213562373091, 0.005) is False
    assert exact(math.nan, 0.0) is False and exact(1.0, math.nan) is False
    # A tie at 0.5 is exact exactly when tol reaches 0.5.
    assert (exact(0.5, 0.5, 0.5), exact(0.5, 0.5, 0.4)) == (True, False)
    # Elementwise on arrays, with the same verdicts.
    verdicts = exact(np.array([low, math.nextafter(low, 0.0), 1.0, 1.0, math.nan]),
                     np.array([tol, 0.0, high, 0.0, 0.0]))
    assert verdicts.dtype == bool and verdicts.tolist() == [True, False, False, True, False]


def test_exactness_rule_has_no_slack_above_one():
    import math

    from qverify import limits
    exact, tol = limits.exact, limits.EXACT_TOL
    # The start state's norm is judged by unitary_within, not by a second
    # tolerance, so the wanted label's mass may lie no further above 1 than
    # below it.
    assert not hasattr(limits, "NORM_TOL")
    assert exact(1.0 + 1.5e-9, 0.0) is False
    top = 1.0 + 4503599 * 2.0 ** -52  # the largest float within tol above 1
    assert exact(top, 0.0) is True and exact(math.nextafter(top, 2.0), 0.0) is False
    # Below 1 the rule reads p_want >= 1 - tol, as before, on every float
    # near that bound.
    p = 1.0 - tol + np.arange(-50, 51) * 2.0 ** -53
    assert (exact(p, 0.0) == (p >= 1.0 - tol)).all()
