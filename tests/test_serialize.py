import json

import numpy as np
import pytest

from qverify import (
    BooleanFunction,
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
from qverify.serialize import document_to_function, function_to_document

import refdata


class TestAlgorithmDocuments:
    def test_document_shape(self, alg4):
        doc = algorithm_to_document(alg4)
        assert doc["schema_version"] == 1
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
        stage2 = np.asarray(doc["stages"][1]["unitary"])
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
        doc["schema_version"] = 2
        with pytest.raises(ValueError, match="schema_version"):
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
