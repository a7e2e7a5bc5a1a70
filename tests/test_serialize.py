import json
import math
from pathlib import Path

import numpy as np
import pytest

from qverify import (
    BooleanFunction,
    Kron,
    Nonzeros,
    QueryAlgorithm,
    algorithm_to_document,
    build_algorithm,
    check_exact,
    document_to_algorithm,
    dumps_algorithm,
    load_algorithm,
    load_function,
    run,
    save_algorithm,
)
from qverify.limits import MAX_DOC_DIM
from qverify.serialize import document_to_function

import refdata

V1_FIXTURE = Path(__file__).parent / "golden" / "alg6_v1.json"
V2_FIXTURE = Path(__file__).parent / "golden" / "alg6_v2.json"


def assert_same_algorithm(a, b):
    assert (a.n_vars, a.t_queries) == (b.n_vars, b.t_queries)
    for x, y in [(a.start, b.start), (a.final_unitary, b.final_unitary), (a.labels, b.labels)]:
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    for s, t in zip(a.stages, b.stages):
        assert s.unitary.tobytes() == t.unitary.tobytes()
        assert s.query.dtype == t.query.dtype and s.query.tobytes() == t.query.tobytes()


class TestAlgorithmDocuments:
    def test_document_shape(self, alg4):
        doc = algorithm_to_document(alg4)
        assert doc["schema_version"] == 2
        assert (doc["n_vars"], doc["t_queries"], doc["dim"]) == (4, 2, 4)
        assert doc["start"] == [1.0, 0.0, 0.0, 0.0]
        assert doc["labels"] == [1, 0, 0, 0]
        assert len(doc["stages"]) == 2

    def test_variable_indices_are_one_based(self, alg4):
        doc = algorithm_to_document(alg4)
        assert doc["stages"][0]["query_diagonal"] == [
            {"var": 1}, {"fixed": True}, {"var": 2}, {"fixed": True}]

    def test_six_bit_document_carries_the_fixture_matrices(self, alg6):
        doc = algorithm_to_document(alg6)
        stage2 = document_to_algorithm(doc).stages[1].unitary
        assert np.abs(stage2 - refdata.SIX_BIT_U2).max() <= 1e-12
        assert doc["stages"][2]["query_diagonal"][0] == {"var": 5}

    def test_round_trip_is_bitwise(self, alg6):
        loaded = document_to_algorithm(json.loads(dumps_algorithm(alg6)))
        assert np.array_equal(loaded.start, alg6.start)
        assert np.array_equal(loaded.final_unitary, alg6.final_unitary)
        assert np.array_equal(loaded.labels, alg6.labels)
        for a, b in zip(loaded.stages, alg6.stages):
            assert np.array_equal(a.unitary, b.unitary)
            assert np.array_equal(a.query, b.query)

    def test_round_trip_traces_are_identical(self, alg6, tmp_path):
        path = tmp_path / "alg6.json"
        save_algorithm(alg6, path)
        loaded = load_algorithm(path)
        for word in ("000000", "110100", "111111"):
            original = run(alg6, word)
            reloaded = run(loaded, word)
            for a, b in zip(original.states, reloaded.states):
                assert np.array_equal(a, b)

    def test_round_trip_verdicts_are_identical(self, alg6, tmp_path):
        path = tmp_path / "alg6.json"
        save_algorithm(alg6, path)
        f = BooleanFunction.verify(6)
        assert check_exact(load_algorithm(path), f) == check_exact(alg6, f)

    def test_dump_load_dump_is_byte_stable(self, alg4):
        text = dumps_algorithm(alg4)
        again = dumps_algorithm(document_to_algorithm(json.loads(text)))
        assert text == again

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_matrix_form_lists_fewer_numbers(self, n):
        alg = build_algorithm(n)
        doc = algorithm_to_document(alg)
        matrices = [(s["unitary"], st.unitary) for s, st in zip(doc["stages"], alg.stages)]
        # A final matrix of more than one factor takes the kron form.
        final = doc["final_unitary"]
        factors = final["kron"] if len(alg.final.factors) > 1 else [final]
        matrices += [(form, f.dense(d)) for form, f, d in
                     zip(factors, alg.final.factors, alg.final.dims, strict=True)]
        for form, m in matrices:
            nnz = np.count_nonzero(m)
            assert isinstance(form, dict) == (3 * nnz < m.size)
            if isinstance(form, dict):
                assert len(form["values"]) == nnz
            else:
                assert form == m.tolist()

    def test_negative_zero_survives_the_nonzeros_form(self):
        alg = build_algorithm(8)
        unitary = alg.stages[0].unitary.copy()
        unitary[1, 0] = unitary[15, 3] = -0.0
        stages = [(unitary, alg.stages[0].query)] + list(alg.stages[1:])
        damaged = QueryAlgorithm(alg.n_vars, alg.start, stages, alg.final_unitary, alg.labels)
        doc = json.loads(dumps_algorithm(damaged))
        assert isinstance(doc["stages"][0]["unitary"], dict)
        loaded = document_to_algorithm(doc).stages[0].unitary
        assert np.array_equal(np.signbit(loaded), np.signbit(unitary))
        assert loaded.tobytes() == unitary.tobytes()

    def test_explicit_zeros_given_as_nonzeros_round_trip_byte_stable(self):
        alg = build_algorithm(8)
        r, c, v = alg.stages[0].nonzeros
        # A +0.0 at (0, 1) and a -0.0 at (1, 0), both unlisted, in row-major order.
        at = np.searchsorted(r * alg.dim + c, [1, alg.dim])
        given = Nonzeros(np.insert(r, at, [0, 1]), np.insert(c, at, [1, 0]),
                         np.insert(v, at, [0.0, -0.0]))
        stages = [(given, alg.stages[0].query), *alg.stages[1:]]
        built = QueryAlgorithm(alg.n_vars, alg.start, stages, alg.final, alg.labels)
        stored = built.stages[0].nonzeros
        assert stored.values.size == v.size + 1
        assert (stored.rows[1:3].tolist(), stored.cols[1:3].tolist()) == ([0, 1], [8, 0])
        assert np.signbit(stored.values[2])
        text = dumps_algorithm(built)
        assert dumps_algorithm(document_to_algorithm(json.loads(text))) == text

    @pytest.mark.parametrize("n", range(2, 17, 2))
    def test_builder_documents_reload_bitwise(self, n, tmp_path):
        path = tmp_path / "alg.json"
        alg = build_algorithm(n)
        save_algorithm(alg, path)
        loaded = load_algorithm(path)
        assert_same_algorithm(loaded, alg)
        table = BooleanFunction.verify(n).values().copy()
        table[n] ^= 1
        for f in (BooleanFunction.verify(n), BooleanFunction(n, table)):
            assert check_exact(loaded, f) == check_exact(alg, f)

    def test_version_1_fixture_loads_bitwise(self, alg6):
        doc = json.loads(V1_FIXTURE.read_text(encoding="utf-8"))
        assert doc["schema_version"] == 1
        assert all(isinstance(s["unitary"], list) for s in doc["stages"])
        assert_same_algorithm(load_algorithm(V1_FIXTURE), alg6)

    def test_version_2_fixture_loads_bitwise(self, alg6):
        # Written before the kron form: the final matrix as dense rows.
        doc = json.loads(V2_FIXTURE.read_text(encoding="utf-8"))
        assert doc["schema_version"] == 2
        assert isinstance(doc["final_unitary"], list)
        assert_same_algorithm(load_algorithm(V2_FIXTURE), alg6)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_only_a_final_of_several_factors_takes_version_3(self, n):
        doc = algorithm_to_document(build_algorithm(n))
        assert doc["schema_version"] == (3 if n > 4 else 2)
        assert isinstance(doc["final_unitary"], dict) == (n > 4)
        if n > 4:
            assert doc["final_unitary"]["kron"][0] == [[0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5],
                                                       [0.5, 0.5, -0.5, -0.5],
                                                       [0.5, -0.5, -0.5, 0.5]]

    def test_sparse_factors_carry_their_side(self):
        # A factor in the nonzeros form lists its side as "dim".
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        final = Kron((Nonzeros.of(np.eye(4)), Nonzeros.of(h)), (4, 2))
        base = build_algorithm(6)
        alg = QueryAlgorithm(6, base.start, base.stages, final, base.labels)
        doc = json.loads(dumps_algorithm(alg))
        assert doc["final_unitary"]["kron"][0] == {"dim": 4, "rows": [0, 1, 2, 3],
                                                   "cols": [0, 1, 2, 3], "values": [1.0] * 4}
        loaded = document_to_algorithm(doc)
        assert_same_algorithm(loaded, alg)
        assert dumps_algorithm(loaded) == dumps_algorithm(alg)

    @pytest.mark.parametrize("n", [6, 10])
    def test_loaded_documents_match_naive_run(self, n, tmp_path):
        path = tmp_path / "alg.json"
        save_algorithm(build_algorithm(n), path)
        loaded = load_algorithm(path)
        table = BooleanFunction.verify(n).values().copy()
        table[-1] ^= 1
        for f in (BooleanFunction.verify(n), BooleanFunction(n, table)):
            report = check_exact(loaded, f)
            counterexample, min_prob = refdata.naive_check(loaded, f)
            assert report.counterexample == counterexample
            assert report.exact == (counterexample is None)
            assert report.min_probability == pytest.approx(min_prob, abs=1e-12)

    def test_loader_accepts_non_unitary_matrices(self, alg4, tmp_path):
        # A damaged document must load so the behavioral check can convict
        # it with a counterexample rather than an up-front rejection.
        doc = algorithm_to_document(alg4)
        doc["stages"][0]["unitary"][0][0] *= -1.0
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded = load_algorithm(path)
        assert not loaded.unitary_within()
        report = check_exact(loaded, BooleanFunction.verify(4))
        assert not report.exact
        assert report.counterexample is not None


def _negative_zeros():
    doc = algorithm_to_document(build_algorithm(8))
    doc["stages"][0]["unitary"]["values"][1] = -0.0
    doc["final_unitary"]["kron"][0][3][1] = -0.0
    return document_to_algorithm(doc)


def _empty_nonzeros():
    alg = build_algorithm(4)
    stages = [(np.zeros((alg.dim, alg.dim)), alg.stages[0].query), *alg.stages[1:]]
    return QueryAlgorithm(4, alg.start, stages, alg.final, alg.labels)


def _one_entry_lists():
    # At dim 2 one nonzero lists fewer numbers than the 4 dense entries.
    return QueryAlgorithm(1, [1.0, 0.0], [(np.diag([1.0, 0.0]), [1, 0])], np.eye(2), [1, 0])


# id: a function that makes the algorithm to write
WRITER_CASES = {
    **{f"builder-n{n}": (lambda n=n: build_algorithm(n)) for n in range(2, 17, 2)},
    "fixture-v1": lambda: load_algorithm(V1_FIXTURE),
    "fixture-v2": lambda: load_algorithm(V2_FIXTURE),
    "empty-nonzeros": _empty_nonzeros,
    "negative-zeros": _negative_zeros,
    "one-entry-lists": _one_entry_lists,
}


class TestWriter:
    """The writer's text is json.dumps(doc): one call to json's C encoder."""

    @pytest.mark.parametrize("make", WRITER_CASES.values(), ids=WRITER_CASES)
    def test_writer_matches_json_dumps_with_indent(self, make):
        alg = make()
        doc = algorithm_to_document(alg)
        assert dumps_algorithm(alg) == json.dumps(doc)

    def test_written_forms_are_the_named_ones(self):
        assert algorithm_to_document(_empty_nonzeros())["stages"][0]["unitary"] == {
            "rows": [], "cols": [], "values": []}
        assert algorithm_to_document(_one_entry_lists())["stages"][0]["unitary"] == {
            "rows": [0], "cols": [0], "values": [1.0]}
        doc = algorithm_to_document(_negative_zeros())
        assert math.copysign(1.0, doc["stages"][0]["unitary"]["values"][1]) == -1.0
        assert math.copysign(1.0, doc["final_unitary"]["kron"][0][3][1]) == -1.0


TOP_KEYS = ("top level must have exactly the keys 'schema_version', 'n_vars', 't_queries', "
            "'dim', 'start', 'stages', 'final_unitary' and 'labels'")
STAGE_KEYS = "stage 1 must have exactly the keys 'unitary' and 'query_diagonal'"
# id: (how the n = 4 document is damaged, the message after the prefix)
KEY_DAMAGE = {
    "top-extra-key": (lambda d: d.update(labels_=[1, 0, 0, 0]), TOP_KEYS),
    "top-missing-key": (lambda d: d.pop("labels"), TOP_KEYS),
    "stage-extra-key": (lambda d: d["stages"][0].update(unitaryy=[]), STAGE_KEYS),
    "stage-missing-key": (lambda d: d["stages"][0].pop("query_diagonal"), STAGE_KEYS),
    "stage-not-an-object": (lambda d: d["stages"].__setitem__(0, []), STAGE_KEYS),
}


class TestDocumentValidation:
    def _doc(self, alg4):
        return algorithm_to_document(alg4)

    def test_rejects_wrong_schema_version(self, alg4):
        doc = self._doc(alg4)
        doc["schema_version"] = 4
        with pytest.raises(ValueError, match="schema_version"):
            document_to_algorithm(doc)
        table = {"schema_version": 2, "arity": 1, "table": [0, 1]}
        with pytest.raises(ValueError, match="schema_version"):
            document_to_function(table)

    @pytest.mark.parametrize("keys", [["start", 1], ["final_unitary", 0, 0],
                                      ["stages", 0, "unitary", 1, 1]])
    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_booleans_among_numbers(self, alg4, keys, value):
        doc = self._doc(alg4)
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        with pytest.raises(ValueError, match="only numbers"):
            document_to_algorithm(doc)

    @pytest.mark.parametrize("label", [True, 1.0, "1", 2, -1, 2**70, None, [1]])
    def test_rejects_labels_other_than_integers(self, alg4, label):
        doc = self._doc(alg4)
        doc["labels"][0] = label
        with pytest.raises(ValueError, match="labels must be a list of the integers 0 and 1"):
            document_to_algorithm(doc)

    def test_rejects_ragged_matrix_by_name(self, alg4):
        doc = self._doc(alg4)
        doc["stages"][0]["unitary"][1] = [0.5]
        with pytest.raises(ValueError, match="^invalid document: stage 1 unitary is ragged"):
            document_to_algorithm(doc)

    def test_rejects_dim_past_the_cap(self, alg4):
        doc = self._doc(alg4)
        doc["dim"] = MAX_DOC_DIM + 1
        with pytest.raises(ValueError, match="dim must be in"):
            document_to_algorithm(doc)

    def test_rejects_start_of_another_length(self, alg4):
        # Checked against dim before the stages, whose slots it would
        # otherwise be blamed on.
        doc = self._doc(alg4)
        doc["start"] = [1.0, 0.0]
        with pytest.raises(ValueError, match=r"^invalid document: start must list 4 entries$"):
            document_to_algorithm(doc)

    def test_rejects_missing_key(self, alg4):
        doc = self._doc(alg4)
        del doc["start"]
        with pytest.raises(ValueError, match="start"):
            document_to_algorithm(doc)

    @pytest.mark.parametrize("damage,message", KEY_DAMAGE.values(), ids=KEY_DAMAGE)
    def test_rejects_other_keys_by_object(self, alg4, damage, message):
        # A misspelt key next to the right ones is an error, not ignored.
        doc = self._doc(alg4)
        damage(doc)
        with pytest.raises(ValueError) as excinfo:
            document_to_algorithm(doc)
        assert str(excinfo.value) == f"invalid document: {message}"

    def test_rejects_stage_count_mismatch(self, alg4):
        doc = self._doc(alg4)
        doc["t_queries"] = 3
        with pytest.raises(ValueError, match="stages"):
            document_to_algorithm(doc)

    # 1 == True in Python, so {"fixed": 1} and {"fixed": 1.0} compare equal
    # to {"fixed": True}; a fixed slot must still say true.
    @pytest.mark.parametrize("entry", [{"fixed": False}, {"var": 0}, {"var": "1"},
                                       {"var": 1, "fixed": True}, "fixed", 3,
                                       {"fixed": 1}, {"fixed": 1.0}])
    def test_rejects_malformed_diagonal_entries(self, alg4, entry):
        doc = self._doc(alg4)
        doc["stages"][0]["query_diagonal"][1] = entry
        with pytest.raises(ValueError, match="^invalid document: stage 1 slot 1"):
            document_to_algorithm(doc)

    def test_rejects_wrong_diagonal_length(self, alg4):
        doc = self._doc(alg4)
        doc["stages"][0]["query_diagonal"].append({"fixed": True})
        with pytest.raises(ValueError):
            document_to_algorithm(doc)

    def test_rejects_var_index_beyond_n_vars(self, alg4):
        doc = self._doc(alg4)
        doc["stages"][0]["query_diagonal"][0] = {"var": 9}
        with pytest.raises(ValueError):
            document_to_algorithm(doc)

    def test_rejects_var_index_past_int64(self, alg4):
        # An index within n_vars must still fit the int64 query map.
        doc = self._doc(alg4)
        doc["n_vars"] = 10**30
        doc["stages"][0]["query_diagonal"][0] = {"var": 10**30}
        with pytest.raises(ValueError, match="n_vars must fit in int64"):
            document_to_algorithm(doc)


def _nest_rows(m):
    m["rows"][0] = [m["rows"][0]]


def _nest_values(m):
    m["values"] = [[v] for v in m["values"]]


def _repeat_entry(m):
    m["rows"][1], m["cols"][1] = m["rows"][0], m["cols"][0]


def _set(key, value):
    return lambda m: m[key].__setitem__(0, value)


# id: (how the stage 1 nonzeros form of the n = 8 document is damaged, message)
SPARSE_DAMAGE = {
    "extra-key": (lambda m: m.update(shape=[16, 16]), "exactly the keys"),
    "missing-key": (lambda m: m.pop("values"), "exactly the keys"),
    "short-values": (lambda m: m["values"].pop(), "lists of one length"),
    "cols-not-a-list": (lambda m: m.update(cols=1), "lists of one length"),
    "nested-rows": (_nest_rows, "rows must be a flat list of integers"),
    "nested-values": (_nest_values, "values must be a flat list"),
    "float-row": (_set("rows", 0.0), "rows must be a flat list of integers"),
    "bool-col": (_set("cols", True), "cols must be a flat list of integers"),
    "string-row": (_set("rows", "0"), "rows must be a flat list of integers"),
    "row-past-dim": (_set("rows", 16), r"rows must lie in \[0, 16\)"),
    "negative-col": (_set("cols", -1), r"cols must lie in \[0, 16\)"),
    "huge-col": (_set("cols", 10**30), r"cols must lie in \[0, 16\)"),
    "repeated-entry": (_repeat_entry, "stage 1 unitary must list distinct entries below 16"),
    "string-value": (_set("values", "0.5"), "values must hold only numbers"),
    "object-value": (_set("values", {}), "values must hold only numbers"),
    "bool-value": (_set("values", True), "values must hold only numbers"),
    "huge-value": (_set("values", 10**30), "values must hold only numbers"),
    "nan-value": (_set("values", float("nan")), "non-finite"),
}


class TestNonzerosFormValidation:
    @pytest.mark.parametrize("damage,message", SPARSE_DAMAGE.values(), ids=SPARSE_DAMAGE)
    def test_rejects_malformed_nonzeros(self, damage, message):
        doc = algorithm_to_document(build_algorithm(8))
        damage(doc["stages"][0]["unitary"])
        with pytest.raises(ValueError, match=f"^invalid document: .*{message}"):
            document_to_algorithm(doc)

    def test_entries_load_in_row_major_order_without_zeros(self):
        alg = build_algorithm(8)
        doc = algorithm_to_document(alg)
        form = doc["stages"][1]["unitary"]
        # Listed backwards, with an explicit 0.0 at an unlisted entry.
        for key in ("rows", "cols", "values"):
            form[key] = form[key][::-1]
        form["rows"].append(0)
        form["cols"].append(1)
        form["values"].append(0.0)
        loaded = document_to_algorithm(doc)
        assert loaded.stages[1].nonzeros.rows.tolist() == alg.stages[1].nonzeros.rows.tolist()
        assert dumps_algorithm(loaded) == dumps_algorithm(alg)

    def test_negative_zero_survives_load_and_dump_in_both_forms(self):
        doc = algorithm_to_document(build_algorithm(8))
        assert isinstance(doc["stages"][0]["unitary"], dict)
        assert isinstance(doc["final_unitary"]["kron"][0], list)
        doc["stages"][0]["unitary"]["values"][1] = -0.0
        doc["final_unitary"]["kron"][0][3][1] = -0.0
        text = json.dumps(doc)
        loaded = document_to_algorithm(json.loads(text))
        assert np.signbit(loaded.stages[0].unitary[0, 8])
        assert np.signbit(loaded.final.factors[0].dense(4)[3, 1])
        assert dumps_algorithm(loaded) == text

    def test_unlisted_entries_are_zero(self):
        doc = algorithm_to_document(build_algorithm(8))
        doc["final_unitary"] = {"rows": [], "cols": [], "values": []}
        assert not document_to_algorithm(doc).final_unitary.any()


# id: (the kron form that replaces the n = 8 document's final matrix, message)
H4 = [[0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5], [0.5, 0.5, -0.5, -0.5], [0.5, -0.5, -0.5, 0.5]]
KRON_DAMAGE = {
    "empty": ({"kron": []}, r"final unitary needs factors .* product is 16, got 0 factors"),
    "not-a-list": ({"kron": H4[0][0]}, "final_unitary kron must be a list of factors"),
    "extra-key": ({"kron": [H4, H4], "order": "big-endian"},
                  "final_unitary must have exactly the key 'kron'$"),
    # Without its key a kron form is an object of other keys, read as nonzeros.
    "missing-key": ({"krons": [H4, H4]},
                    "final_unitary must have exactly the keys 'rows', 'cols' and 'values'$"),
    "nested": ({"kron": [{"kron": [H4]}, H4]}, "factor 1 must have exactly the keys"),
    "not-square": ({"kron": [H4[:2], H4]},
                   r"final unitary factor 1 must be a square matrix, got shape \(2, 4\)"),
    "one-by-one": ({"kron": [[[1.0]], H4, H4]},
                   r"final unitary needs factors of side at least 2 .* sides \(1, 4, 4\)"),
    "flat": ({"kron": [H4[0], H4]},
             r"final unitary factor 1 must be a square matrix, got shape \(4,\)"),
    "sides-16-by-4": ({"kron": [H4, H4, H4]},
                      r"final unitary needs .* product is 16, got 3 factors of sides \(4, 4, 4\)"),
    "sides-4-by-2": ({"kron": [H4, [[1.0, 0.0], [0.0, 1.0]]]},
                     r"final unitary needs .* product is 16, got 2 factors of sides \(4, 2\)"),
    "sparse-no-dim": ({"kron": [{"rows": [], "cols": [], "values": []}, H4]},
                      "factor 1 must have exactly the keys 'dim'"),
    "sparse-extra-key": ({"kron": [{"dim": 4, "rows": [], "cols": [], "values": [], "order": 1},
                                   H4]},
                         "factor 1 must have exactly the keys 'dim', 'rows', 'cols' and 'values'$"),
    "sparse-huge-dim": ({"kron": [{"dim": 10**30, "rows": [], "cols": [], "values": []}, H4]},
                        r"factor 1 dim must be an integer in \[0, 16\]"),
    "sparse-huge-negative-dim": (
        {"kron": [{"dim": -10**30, "rows": [], "cols": [], "values": []}, H4]},
        r"factor 1 dim must be an integer in \[0, 16\]"),
    "sparse-zero-dim": ({"kron": [{"dim": 0, "rows": [], "cols": [], "values": []}, H4]},
                        r"final unitary needs factors of side at least 2 .* sides \(0, 4\)"),
    "sparse-row-past-dim": ({"kron": [{"dim": 4, "rows": [4], "cols": [0], "values": [1.0]}, H4]},
                            r"factor 1 rows must lie in \[0, 4\)"),
    "bool-entry": ({"kron": [[[True, 0.5], [0.5, 0.5]], H4, [[1.0, 0.0], [0.0, 1.0]]]},
                   "factor 1 must hold only numbers"),
    "nan-entry": ({"kron": [H4, [[float("nan")] * 4] * 4]}, "factor 2 has non-finite entries"),
}


class TestKronFormValidation:
    @pytest.mark.parametrize("form,message", KRON_DAMAGE.values(), ids=KRON_DAMAGE)
    def test_rejects_malformed_kron_forms(self, form, message):
        doc = algorithm_to_document(build_algorithm(8))
        doc["final_unitary"] = form
        with pytest.raises(ValueError, match=f"^invalid document: .*{message}"):
            document_to_algorithm(doc)

    def test_stages_do_not_take_the_kron_form(self):
        doc = algorithm_to_document(build_algorithm(8))
        doc["stages"][0]["unitary"] = doc["final_unitary"]
        with pytest.raises(ValueError, match="stage 1 unitary cannot take the kron form"):
            document_to_algorithm(doc)

    def test_one_factor_loads_like_the_plain_matrix(self, alg4):
        doc = algorithm_to_document(alg4)
        plain = document_to_algorithm(doc)
        doc["final_unitary"] = {"kron": [doc["final_unitary"]]}
        wrapped = document_to_algorithm(doc)
        assert_same_algorithm(wrapped, plain)
        assert dumps_algorithm(wrapped) == dumps_algorithm(plain)


class TestFunctionDocuments:
    def test_verifier_document_tabulates(self):
        # The 4-variable verifier accepts 0000, 0011, 1100 and 1111.
        doc = {"schema_version": 1, "arity": 4,
               "table": [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1]}
        f = document_to_function(doc)
        assert (f.arity, f.table.tolist()) == (4, BooleanFunction.verify(4).values().tolist())

    def test_load(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"schema_version": 1, "arity": 2,
                                    "table": [1, 0, 0, 1]}), encoding="utf-8")
        assert load_function(path).evaluate("11") == 1

    @pytest.mark.parametrize("value", [True, 1.0, 2, -1, 2**70, "1", None, [1]])
    def test_rejects_entries_other_than_the_integers_0_and_1(self, value):
        for bits in ([value, 0], [1, value]):
            doc = {"schema_version": 1, "arity": 1, "table": bits}
            with pytest.raises(ValueError) as excinfo:
                document_to_function(doc)
            assert str(excinfo.value) == \
                "invalid document: table must be a list of the integers 0 and 1"

    @pytest.mark.parametrize("arity,message", [
        (0, "arity must be positive, got 0"),
        (True, "arity must be an integer, got True"),
        (10**30, f"truth table must have 2**{10**30} entries, got shape (2,)"),
    ], ids=["zero", "true", "huge"])
    def test_rejects_arity_through_the_constructor(self, arity, message):
        # 1 << 10**30 raises OverflowError, so a ValueError shows it was never built.
        with pytest.raises(ValueError) as excinfo:
            document_to_function({"schema_version": 1, "arity": arity, "table": [0, 1]})
        assert str(excinfo.value) == f"invalid document: {message}"

    @pytest.mark.parametrize("doc", [
        {"schema_version": 1, "arity": 1, "table": [0, 1], "note": "x"},
        {"schema_version": 1, "arity": 1},
    ], ids=["extra-key", "missing-key"])
    def test_rejects_other_keys(self, doc):
        with pytest.raises(ValueError) as excinfo:
            document_to_function(doc)
        assert str(excinfo.value) == ("invalid document: top level must have exactly the keys "
                                      "'schema_version', 'arity' and 'table'")

    def test_rejects_short_table(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"schema_version": 1, "arity": 2, "table": [1, 0]}),
                        encoding="utf-8")
        with pytest.raises(ValueError):
            load_function(path)


class TestDecoding:
    """Every decoding failure leaves either loader as one ValueError, named
    "invalid document" by the loaders' one boundary."""

    @pytest.mark.parametrize("load", [load_algorithm, load_function])
    @pytest.mark.parametrize("data", [
        b"\xff\xfe",
        b"not JSON",
        # json.loads refuses to convert an integer of more than 4300 digits.
        b"1" * 5000,
        # json.loads raises RecursionError on this depth.
        b"[" * 200_000 + b"]" * 200_000,
    ], ids=["not-utf8", "not-json", "5000-digits", "deep-nesting"])
    def test_each_failure_is_one_invalid_document_error(self, tmp_path, load, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ValueError) as excinfo:
            load(path)
        assert str(excinfo.value).startswith("invalid document: ")
        assert excinfo.value.__suppress_context__
