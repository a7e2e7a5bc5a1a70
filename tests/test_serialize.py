import json
from pathlib import Path

import numpy as np
import pytest

from qverify import (
    BooleanFunction,
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
from qverify.serialize import document_to_function, function_to_document

import refdata

V1_FIXTURE = Path(__file__).parent / "golden" / "alg6_v1.json"


def assert_same_algorithm(a, b):
    assert (a.n_vars, a.t_queries) == (b.n_vars, b.t_queries)
    for x, y in [(a.start, b.start), (a.final_unitary, b.final_unitary), (a.labels, b.labels)]:
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    for s, t in zip(a.stages, b.stages):
        assert s.unitary.tobytes() == t.unitary.tobytes()
        assert s.query == t.query


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
            assert a.query == b.query

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
        for form, m in matrices + [(doc["final_unitary"], alg.final_unitary)]:
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

    @pytest.mark.parametrize("n", range(2, 17, 2))
    def test_builder_documents_reload_bitwise(self, n, tmp_path):
        path = tmp_path / "alg.json"
        alg = build_algorithm(n)
        save_algorithm(alg, path)
        loaded = load_algorithm(path)
        assert_same_algorithm(loaded, alg)
        table = BooleanFunction.verify(n).values().copy()
        table[n] ^= 1
        for f in (BooleanFunction.verify(n), BooleanFunction.from_table(table)):
            assert check_exact(loaded, f) == check_exact(alg, f)

    def test_version_1_fixture_loads_bitwise(self, alg6):
        doc = json.loads(V1_FIXTURE.read_text(encoding="utf-8"))
        assert doc["schema_version"] == 1
        assert all(isinstance(s["unitary"], list) for s in doc["stages"])
        assert_same_algorithm(load_algorithm(V1_FIXTURE), alg6)

    @pytest.mark.parametrize("n", [6, 10])
    def test_loaded_documents_match_naive_run(self, n, tmp_path):
        path = tmp_path / "alg.json"
        save_algorithm(build_algorithm(n), path)
        loaded = load_algorithm(path)
        table = BooleanFunction.verify(n).values().copy()
        table[-1] ^= 1
        for f in (BooleanFunction.verify(n), BooleanFunction.from_table(table)):
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
        assert not loaded.unitary_within(1e-12)
        report = check_exact(loaded, BooleanFunction.verify(4))
        assert not report.exact
        assert report.counterexample is not None


class TestDocumentValidation:
    def _doc(self, alg4):
        return algorithm_to_document(alg4)

    def test_rejects_wrong_schema_version(self, alg4):
        doc = self._doc(alg4)
        doc["schema_version"] = 3
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

    @pytest.mark.parametrize("label", [True, 1.0, "1"])
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

    def test_rejects_missing_key(self, alg4):
        doc = self._doc(alg4)
        del doc["start"]
        with pytest.raises(ValueError, match="start"):
            document_to_algorithm(doc)

    def test_rejects_stage_count_mismatch(self, alg4):
        doc = self._doc(alg4)
        doc["t_queries"] = 3
        with pytest.raises(ValueError, match="stages"):
            document_to_algorithm(doc)

    @pytest.mark.parametrize("entry", [{"fixed": False}, {"var": 0}, {"var": "1"},
                                       {"var": 1, "fixed": True}, "fixed", 3])
    def test_rejects_malformed_diagonal_entries(self, alg4, entry):
        doc = self._doc(alg4)
        doc["stages"][0]["query_diagonal"][1] = entry
        with pytest.raises(ValueError):
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
    "repeated-entry": (_repeat_entry, "lists an entry twice"),
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
        with pytest.raises(ValueError, match=message):
            document_to_algorithm(doc)

    def test_unlisted_entries_are_zero(self):
        doc = algorithm_to_document(build_algorithm(8))
        doc["final_unitary"] = {"rows": [], "cols": [], "values": []}
        assert not document_to_algorithm(doc).final_unitary.any()


class TestFunctionDocuments:
    def test_round_trip(self):
        f = BooleanFunction.from_table([0, 1, 1, 0])
        again = document_to_function(function_to_document(f))
        assert again.arity == 2
        assert np.array_equal(again.table, f.table)

    def test_verifier_document_tabulates(self):
        doc = function_to_document(BooleanFunction.verify(4))
        assert doc["table"] == BooleanFunction.verify(4).values().tolist()

    def test_load(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"schema_version": 1, "arity": 2,
                                    "table": [1, 0, 0, 1]}), encoding="utf-8")
        assert load_function(path).evaluate("11") == 1

    def test_rejects_short_table(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"schema_version": 1, "arity": 2, "table": [1, 0]}),
                        encoding="utf-8")
        with pytest.raises(ValueError):
            load_function(path)
