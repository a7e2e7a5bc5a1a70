import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qverify import algorithm_to_document, build_algorithm, load_algorithm
from qverify import cli as cli_module
from qverify.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# (golden file, argv, expected exit code)
GOLDEN_CASES = [
    ("run_n4_1100_trace.json", ["run", "--n", "4", "--input", "1100", "--trace", "--json"], 0),
    ("verify_n4.json", ["verify", "--n", "4", "--json"], 0),
    ("sensitivity_n6.json", ["sensitivity", "--n", "6", "--json"], 0),
    ("classical_n4_0100.json", ["classical", "--n", "4", "--input", "0100", "--json"], 0),
    ("equal_10_01.json", ["equal", "--y", "10", "--z", "01", "--json"], 1),
    ("build_n2.json", ["build", "--n", "2"], 0),
]


# (document, path of the damaged entry, bad value): each must exit 2. The
# "sparse" document is the n = 8 one, whose stage matrices take the
# nonzeros form and whose final matrix the kron form; the n = 4
# "algorithm" document is all dense rows.
BAD_INPUTS = [
    ("algorithm", ["start", 1], float("nan")),
    ("algorithm", ["stages", 0, "unitary", 1, 1], float("nan")),
    ("algorithm", ["final_unitary", 0, 0], float("inf")),
    ("algorithm", ["labels", 1], -1),
    # numpy reads true among integer labels as 1.
    ("algorithm", ["labels", 0], True),
    ("algorithm", ["n_vars"], True),
    ("algorithm", ["dim"], True),
    ("algorithm", ["stages", 0, "query_diagonal", 0, "var"], True),
    # 1 and 1.0 compare equal to true; slot 1 of the n = 4 document's first
    # stage is fixed.
    ("algorithm", ["stages", 0, "query_diagonal", 1, "fixed"], 1),
    ("algorithm", ["stages", 0, "query_diagonal", 1, "fixed"], 1.0),
    ("function", ["arity"], True),
    ("function", ["table", 0], -1),
    # numpy reads true and 1.0 among integer bits as 1.
    ("function", ["table", 0], True),
    ("function", ["table", 0], 1.0),
    # Objects, strings and integers past int64 are rejected at the document
    # boundary: numpy would raise TypeError or OverflowError on them, or read
    # "1" as the number 1.
    ("algorithm", ["start", 1], {}),
    ("algorithm", ["stages", 0, "unitary", 1, 1], {"re": 0.5}),
    ("algorithm", ["final_unitary", 0, 0], {}),
    ("algorithm", ["final_unitary", 0, 0], "1"),
    ("algorithm", ["final_unitary", 0, 0], 10**30),
    ("algorithm", ["stages", 0, "query_diagonal", 0, "var"], 10**30),
    ("function", ["arity"], 10**30),
    # numpy reads true/false among numbers as 1.0/0.0.
    ("algorithm", ["final_unitary", 0, 0], True),
    ("algorithm", ["stages", 0, "unitary", 1, 1], False),
    ("sparse", ["stages", 0, "unitary", "rows", 0], 16),
    ("sparse", ["stages", 0, "unitary", "cols", 1], 0),
    ("sparse", ["stages", 0, "unitary", "values", 0], True),
    ("sparse", ["stages", 0, "unitary", "shape"], [16, 16]),
    # The n = 8 final takes the kron form, two dense 4 x 4 factors. Kron
    # forms must be non-empty and flat, with square factors of side >= 2 and
    # finite entries whose sides multiply to dim; only the final takes them.
    ("sparse", ["final_unitary", "kron"], []),
    ("sparse", ["final_unitary", "kron", 0], {"kron": [[[1.0]]]}),
    ("sparse", ["final_unitary", "order"], 1),
    ("sparse", ["final_unitary", "kron", 0], [[1.0, 0.0]]),
    ("sparse", ["final_unitary", "kron", 0], [[1.0]]),
    ("sparse", ["final_unitary", "kron", 1], [[1.0, 0.0], [0.0, 1.0]]),
    ("sparse", ["final_unitary", "kron", 0], {"dim": 10**30, "rows": [], "cols": [],
                                             "values": []}),
    ("sparse", ["stages", 0, "unitary"], {"kron": [[[1.0]]]}),
    ("sparse", ["final_unitary", "kron", 0, 0, 0], float("inf")),
    # Arrays of the wrong shape: the model refuses these, except a short
    # start, which the loader checks against dim.
    ("algorithm", ["start"], [[1.0, 0.0], [0.0, 0.0]]),
    ("algorithm", ["stages", 0, "unitary"], [1.0, 0.0, 0.0, 0.0]),
    ("algorithm", ["stages", 0, "unitary"], [[[1.0]]]),
    ("algorithm", ["labels"], [1, 0]),
    ("algorithm", ["start"], [1.0, 0.0]),
    # Faults the loader leaves to the constructors, which name the field: an
    # empty path sets several top-level fields at once.
    ("algorithm", ["n_vars"], 0),
    ("algorithm", [], {"dim": 3, "start": [1.0, 0.0, 0.0]}),
    ("algorithm", ["labels"], []),
    ("algorithm", ["start"], 1.0),
    ("algorithm", ["stages", 0, "unitary"], [[1.0]]),
    ("algorithm", ["final_unitary"], []),
    ("algorithm", [], {"stages": [], "t_queries": 0}),
    # Every object holds exactly its keys, so a misspelt extra key is an error.
    ("algorithm", ["labels_"], [1, 0, 0, 0]),
    ("sparse", ["stages", 0, "unitaryy"], []),
    ("function", ["note"], "x"),
]

# Finite entries whose swept probabilities overflow float64: the documents
# load, and the sweep refuses them.
SWEEP_OVERFLOWS = [
    ("algorithm", ["final_unitary", 0, 0], 1e200),
    ("algorithm", ["stages", 0, "unitary", 0, 0], 1e300),
    # A start state whose norm overflows float64.
    ("algorithm", ["start", 0], 1e308),
]


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _fresh_env(**env_vars) -> dict:
    """The environment for a fresh interpreter on this checkout's sources,
    with env_vars set, or removed where they are None."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env_vars}
    return {name: value for name, value in env.items() if value is not None}


def _run_python(script: str, **env_vars) -> None:
    """Run script in a fresh interpreter on this checkout's sources, with
    env_vars set in its environment, or removed where they are None."""
    proc = subprocess.run([sys.executable, "-c", script], env=_fresh_env(**env_vars),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestGolden:
    @pytest.mark.parametrize("name,argv,expected_code", GOLDEN_CASES,
                             ids=[c[0] for c in GOLDEN_CASES])
    def test_output_matches_golden_file(self, name, argv, expected_code):
        code, out = cli(argv)
        assert code == expected_code
        assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("name,argv,expected_code", GOLDEN_CASES,
                             ids=[c[0] for c in GOLDEN_CASES])
    def test_output_is_stable_across_runs(self, name, argv, expected_code):
        assert cli(argv) == cli(argv)


class TestRun:
    def test_text_output(self, capsys):
        assert main(["run", "--n", "4", "--input", "0011"]) == 0
        out = capsys.readouterr().out
        assert "output: 1" in out
        assert "exact: yes" in out

    def test_trace_lists_every_step(self, capsys):
        main(["run", "--n", "4", "--input", "0000", "--trace"])
        out = capsys.readouterr().out
        for step in ("start", "after U1", "after Q1", "after U2", "after Q2", "final"):
            assert step in out

    def test_json_payload(self):
        code, out = cli(["run", "--n", "4", "--input", "1010", "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["output"] == 0
        assert payload["exact"] is True
        assert payload["final_state"] == pytest.approx([0, 0, 0, 1], abs=1e-9)

    def test_rejects_bad_word(self, capsys):
        assert main(["run", "--n", "4", "--input", "10x1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_rejects_wrong_length(self):
        assert main(["run", "--n", "4", "--input", "101"]) == 2


class TestVerify:
    def test_passes_for_built_algorithm(self, capsys):
        assert main(["verify", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "inputs tested: 64" in out
        assert "result: exact" in out

    def test_parallel_output_is_identical(self):
        assert cli(["verify", "--n", "8", "--json"]) == \
            cli(["verify", "--n", "8", "--parallel", "--json"])

    def test_rejects_odd_n(self):
        assert main(["verify", "--n", "5"]) == 2


class TestBuild:
    def test_document_round_trips_through_file(self, tmp_path):
        path = tmp_path / "alg.json"
        assert main(["build", "--n", "6", "--out", str(path)]) == 0
        alg = load_algorithm(path)
        assert (alg.n_vars, alg.t_queries, alg.dim) == (6, 3, 8)

    def test_build_load_build_is_byte_stable(self, tmp_path):
        first = tmp_path / "a.json"
        main(["build", "--n", "4", "--out", str(first)])
        code, stdout_doc = cli(["build", "--n", "4"])
        assert code == 0
        assert stdout_doc == first.read_text(encoding="utf-8")

    def test_text_format(self, capsys):
        assert main(["build", "--n", "2", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "U1 =" in out and "Q1 = diag((-1)^x1, (-1)^x2)" in out

    def test_text_format_prints_each_line_as_it_is_made(self):
        # The n = 16 text is 6.5 MB and one 256 x 256 matrix 0.5 MB, so a
        # peak under 2 MB means each line was printed as it was made.
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["build", "--n", "16", "--format", "text"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 << 20, peak

    def test_rejects_bad_n(self, capsys):
        assert main(["build", "--n", "7"]) == 2
        assert "error" in capsys.readouterr().err


class TestEqual:
    def test_equal_strings_exit_zero(self, capsys):
        assert main(["equal", "--y", "101", "--z", "101"]) == 0
        assert capsys.readouterr().out.strip() == "equal"

    def test_unequal_strings_exit_one(self, capsys):
        assert main(["equal", "--y", "0", "--z", "1"]) == 1
        assert capsys.readouterr().out.strip() == "not equal"

    def test_length_mismatch_is_usage_error(self):
        assert main(["equal", "--y", "10", "--z", "100"]) == 2

    def test_does_not_import_numpy(self):
        # strings_equal runs the built verifier's stages in plain Python.
        _run_python(
            "import sys\n"
            "from qverify.cli import main\n"
            "assert main(['equal', '--y', '1', '--z', '1']) == 0\n"
            "assert main(['equal', '--y', '101100111010', '--z', '101100111011', '--json']) == 1\n"
            "for name in ('numpy', 'dataclasses', 'qverify.model', 'qverify.builder',\n"
            "             'qverify._kernels'):\n"
            "    assert name not in sys.modules, name\n")


class TestClassical:
    def test_worst_case_word(self):
        code, out = cli(["classical", "--n", "4", "--input", "1111", "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["output"] == 1
        assert payload["queries_used"] == 4
        assert payload["query_sequence"] == [1, 2, 3, 4]


class TestSensitivity:
    def test_does_not_import_numpy(self):
        _run_python(
            "import sys\n"
            "from qverify.cli import main\n"
            "assert main(['sensitivity', '--n', '4']) == 0\n"
            "assert main(['sensitivity', '--n', '20', '--json']) == 0\n"
            "assert 'numpy' not in sys.modules\n"
            "assert 'dataclasses' not in sys.modules\n"
            "assert 'qverify._kernels' not in sys.modules\n")

    def test_classical_side_never_loads_the_kernels(self):
        # The verifier's table, its query counts and a table's sensitivity
        # live in boolfunc; evaluate alone needs no numpy either.
        _run_python(
            "import sys\n"
            "from qverify import BooleanFunction, classical_query_counts, sensitivity\n"
            "f = BooleanFunction.verify(8)\n"
            "assert (f.evaluate('11001100'), f.evaluate('11001110')) == (1, 0)\n"
            "assert 'numpy' not in sys.modules\n"
            "table = f.values()\n"
            "assert int(table.sum()) == 16\n"
            "assert int(classical_query_counts(8).max()) == 8\n"
            "assert sensitivity(BooleanFunction(8, table)) == (8, '0' * 8)\n"
            "assert 'qverify._kernels' not in sys.modules\n")

    def test_huge_n_is_refused_before_any_table_is_built(self, capsys):
        assert main(["sensitivity", "--n", "1000000"]) == 2
        assert capsys.readouterr() == \
            ("", "error: sensitivity sweep capped at 24 variables, got 1000000\n")


class TestCheck:
    def test_stored_algorithm_passes(self, tmp_path, capsys):
        path = tmp_path / "alg.json"
        main(["build", "--n", "4", "--out", str(path)])
        assert main(["check", "--algorithm", str(path)]) == 0
        out = capsys.readouterr().out
        assert "matrices unitary: yes" in out
        assert "result: exact" in out

    def test_tampered_document_fails_with_counterexample(self, tmp_path):
        path = tmp_path / "alg.json"
        main(["build", "--n", "4", "--out", str(path)])
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["stages"][0]["unitary"][0][0] *= -1.0
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = cli(["check", "--algorithm", str(path), "--json"])
        payload = json.loads(out)
        assert code == 1
        assert payload["exact"] is False
        assert payload["unitary"] is False
        assert payload["counterexample"] == "0000"

    def test_against_truth_table_document(self, tmp_path):
        alg_path = tmp_path / "alg.json"
        main(["build", "--n", "2", "--out", str(alg_path)])
        fn_path = tmp_path / "fn.json"
        fn_path.write_text(json.dumps({"schema_version": 1, "arity": 2,
                                       "table": [1, 0, 0, 1]}), encoding="utf-8")
        assert main(["check", "--algorithm", str(alg_path),
                     "--function", str(fn_path)]) == 0

    def test_version_1_document_checks_like_version_2(self, tmp_path):
        # The n = 6 build, written by each schema version in turn: dense
        # rows only, then nonzeros stages, then a two-factor kron final.
        paths = [GOLDEN_DIR / "alg6_v1.json", GOLDEN_DIR / "alg6_v2.json", tmp_path / "alg6.json"]
        assert main(["build", "--n", "6", "--out", str(paths[2])]) == 0
        outputs = []
        for version, path in enumerate(paths, start=1):
            assert json.loads(path.read_text(encoding="utf-8"))["schema_version"] == version
            code, out = cli(["check", "--algorithm", str(path), "--json"])
            assert code == 0
            outputs.append(out.replace(json.dumps(str(path)), '"<path>"'))
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["exact"] is True

    def test_factors_far_from_unitary_report_unitary_false(self, tmp_path):
        # 2H (x) H/2 is the unitary H (x) H, and the check is exact, but the
        # factor bound is sufficient, not necessary: "unitary" is false.
        path = tmp_path / "alg.json"
        doc = algorithm_to_document(build_algorithm(4))
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        doc["final_unitary"] = {"kron": [(2 * h).tolist(), (h / 2).tolist()]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = cli(["check", "--algorithm", str(path), "--json"])
        payload = json.loads(out)
        assert code == 0
        assert (payload["unitary"], payload["exact"]) == (False, True)

    def test_huge_entry_in_an_unreached_column_is_not_unitary(self, tmp_path):
        # The start state never reaches column 1 of U1, so the check stays
        # exact, but the entry's 1e300**2 overflows the Gram residual.
        path = tmp_path / "alg.json"
        doc = algorithm_to_document(build_algorithm(4))
        doc["stages"][0]["unitary"][1][1] = 1e300
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert not load_algorithm(str(path)).unitary_within()
        code, out = cli(["check", "--algorithm", str(path), "--json"])
        assert code == 0
        assert (json.loads(out)["unitary"], json.loads(out)["exact"]) == (False, True)

    # (start, exit code, exact, counterexample, min_probability): the start's
    # norm is judged like the matrices', by unitary_within and the sweep.
    @pytest.mark.parametrize("start,code,exact,counterexample,least", [
        ([1.0, 1.0, 0.0, 0.0], 1, False, "0000", 0.9999999999999996),
        ([0.0, 0.0, 0.0, 0.0], 1, False, "0000", 0.0),
        ([1.0, 3e-5, 0.0, 0.0], 0, True, None, 0.9999999999999996),
    ], ids=["norm-2", "norm-0", "norm-1+9e-10"])
    def test_start_state_norm_is_judged_by_behaviour(self, tmp_path, start, code, exact,
                                                      counterexample, least):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({**algorithm_to_document(build_algorithm(4)), "start": start}),
                        encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out = cli(["check", "--algorithm", str(path), "--json"])
        payload = json.loads(out)
        assert got == code
        assert (payload["unitary"], payload["exact"], payload["counterexample"],
                payload["min_probability"]) == (False, exact, counterexample, least)

    @pytest.mark.parametrize("command", [["verify", "--n", "4"],
                                         ["classical", "--n", "4", "--input", "1111"]])
    def test_one_blas_thread_unless_the_environment_sets_one(self, command):
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        check = (
            "import os\n"
            "from qverify.cli import main\n"
            f"assert main({command!r}) == 0\n"
            f"got = [os.environ.get(name) for name in {names!r}]\n")
        _run_python(check + "assert got == ['1', '1', '1'], got\n",
                    **dict.fromkeys(names))
        _run_python(check + "assert got == [None, '2', None], got\n",
                    **{**dict.fromkeys(names), "OMP_NUM_THREADS": "2"})

    def test_check_and_verify_do_not_import_numpy_ma(self, tmp_path):
        # numpy 2's np.unique imports numpy.ma unless asked for indices.
        alg_path, fn_path = tmp_path / "alg.json", tmp_path / "fn.json"
        fn_path.write_text(json.dumps({"schema_version": 1, "arity": 8, "table": [0] * 256}),
                           encoding="utf-8")
        script = (
            "import sys\n"
            "from qverify.cli import main\n"
            f"main(['build', '--n', '8', '--out', {str(alg_path)!r}])\n"
            "main(['verify', '--n', '8'])\n"
            f"main(['check', '--algorithm', {str(alg_path)!r}])\n"
            f"main(['check', '--algorithm', {str(alg_path)!r}, '--function', {str(fn_path)!r}])\n"
            "assert 'numpy.ma' not in sys.modules\n")
        _run_python(script)

    def test_only_classical_imports_the_decision_tree(self, tmp_path):
        alg_path = tmp_path / "alg.json"
        assert main(["build", "--n", "4", "--out", str(alg_path)]) == 0
        script = (
            "import sys\n"
            "from qverify.cli import main\n"
            "assert main(['verify', '--n', '4']) == 0\n"
            "assert main(['sensitivity', '--n', '4']) == 0\n"
            f"assert main(['check', '--algorithm', {str(alg_path)!r}]) == 0\n"
            "assert 'numpy' in sys.modules\n"
            "assert 'qverify.classical' not in sys.modules\n")
        _run_python(script)
        _run_python(
            "import sys\n"
            "from qverify.cli import main\n"
            "assert main(['classical', '--n', '4', '--input', '1111']) == 0\n"
            "assert 'qverify.classical' in sys.modules\n"
            "assert 'numpy' not in sys.modules\n")

    def test_numeric_commands_do_not_import_dataclasses(self, tmp_path):
        # Every model record is a NamedTuple, so the numpy commands load
        # dataclasses no more than classical and sensitivity do.
        alg_path = tmp_path / "alg.json"
        assert main(["build", "--n", "4", "--out", str(alg_path)]) == 0
        _run_python(
            "import sys\n"
            "from qverify.cli import main\n"
            "assert main(['verify', '--n', '4', '--json']) == 0\n"
            f"assert main(['check', '--algorithm', {str(alg_path)!r}]) == 0\n"
            "assert main(['run', '--n', '4', '--input', '1100', '--trace', '--json']) == 0\n"
            "assert 'numpy' in sys.modules\n"
            "assert 'dataclasses' not in sys.modules\n")

    def test_classical_and_package_names_do_not_import_numpy(self):
        script = (
            "import sys\n"
            "import qverify\n"
            "from qverify.cli import main\n"
            "assert main(['classical', '--n', '4', '--input', '1111']) == 0\n"
            "assert main(['classical', '--n', '4', '--input', '0100', '--json']) == 0\n"
            "assert 'numpy' not in sys.modules\n"
            "assert 'dataclasses' not in sys.modules\n"
            "assert not hasattr(qverify, 'nope')\n"
            "assert set(qverify.__all__) <= set(dir(qverify))\n"
            "for name in qverify.__all__:\n"
            "    getattr(qverify, name)\n"
            "names = {}\n"
            "exec('from qverify import *', names)\n"
            "assert set(qverify.__all__) <= set(names)\n")
        _run_python(script)

    @pytest.mark.parametrize("value", [True, 1.0, 2, -1, 2**70, "1", None, [1]])
    def test_bad_table_entry_is_one_line_usage_error(self, tmp_path, capsys, value):
        table = [0] * 16
        table[5] = value
        fn_path, alg_path = tmp_path / "f.json", tmp_path / "alg.json"
        fn_path.write_text(json.dumps({"schema_version": 1, "arity": 4, "table": table}),
                           encoding="utf-8")
        assert main(["build", "--n", "4", "--out", str(alg_path)]) == 0
        capsys.readouterr()
        assert main(["check", "--algorithm", str(alg_path), "--function", str(fn_path)]) == 2
        assert capsys.readouterr() == \
            ("", "error: invalid document: table must be a list of the integers 0 and 1\n")

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check", "--algorithm", "/nonexistent.json"]) == 2
        assert "error" in capsys.readouterr().err

    @staticmethod
    def _assert_invalid_document(tmp_path, capsys, role, text):
        bad, alg_path = tmp_path / "bad.json", tmp_path / "alg.json"
        if isinstance(text, bytes):
            bad.write_bytes(text)
        else:
            bad.write_text(text, encoding="utf-8")
        main(["build", "--n", "2", "--out", str(alg_path)])
        capsys.readouterr()
        argv = ["check", "--algorithm", str(alg_path), "--function", "verify", "--json"]
        argv[argv.index(role) + 1] = str(bad)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid document: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("role", ["--algorithm", "--function"])
    def test_deeply_nested_document_is_usage_error(self, tmp_path, capsys, role):
        # json.loads raises RecursionError on this depth.
        self._assert_invalid_document(tmp_path, capsys, role, "[" * 200_000 + "]" * 200_000)

    @pytest.mark.parametrize("role", ["--algorithm", "--function"])
    def test_empty_document_is_usage_error(self, tmp_path, capsys, role):
        self._assert_invalid_document(tmp_path, capsys, role, "")

    @pytest.mark.parametrize("role", ["--algorithm", "--function"])
    def test_document_not_utf8_is_usage_error(self, tmp_path, capsys, role):
        self._assert_invalid_document(tmp_path, capsys, role, b"\xff\xfe")

    @pytest.mark.parametrize("document,keys,value", BAD_INPUTS + SWEEP_OVERFLOWS,
                             ids=[f"{c[0]}-{'.'.join(map(str, c[1]))}-{c[2]}"
                                  for c in BAD_INPUTS + SWEEP_OVERFLOWS])
    def test_bad_input_is_one_line_usage_error(self, tmp_path, capsys, document, keys, value):
        docs = {"algorithm": algorithm_to_document(build_algorithm(4)),
                "sparse": algorithm_to_document(build_algorithm(8)),
                "function": {"schema_version": 1, "arity": 4, "table": [0] * 16}}
        target = docs[document]
        for key in keys[:-1]:
            target = target[key]
        if keys:
            target[keys[-1]] = value
        else:
            target.update(value)
        paths = {}
        for name, doc in docs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc), encoding="utf-8")
        algorithm, function = paths["algorithm"], str(paths["function"])
        if document == "sparse":
            algorithm, function = paths["sparse"], "verify"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check", "--algorithm", str(algorithm), "--function", function, "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        prefix = "error: invalid document: "
        if (document, keys, value) in SWEEP_OVERFLOWS:
            prefix = "error: swept output probabilities overflow"
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1

    @pytest.mark.parametrize("fields,message", [
        ({"n_vars": 0}, "n_vars must be positive, got 0"),
        ({"dim": 3, "start": [1.0, 0.0, 0.0]}, "start state length 3 is not a power of two"),
    ], ids=["n_vars-0", "dim-3"])
    def test_load_error_blames_the_field_at_fault(self, tmp_path, capsys, fields, message):
        # The constructor judges n_vars and start before any stage, so neither
        # fault is blamed on a stage.
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({**algorithm_to_document(build_algorithm(4)), **fields}),
                        encoding="utf-8")
        assert main(["check", "--algorithm", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: invalid document: {message}\n")

    def test_integer_past_the_digit_limit_is_named_without_advice(self, tmp_path, capsys):
        # json.loads' own message advises sys.set_int_max_str_digits().
        path = tmp_path / "alg.json"
        text = json.dumps(algorithm_to_document(build_algorithm(4)))
        path.write_text(text.replace('"n_vars": 4,', f'"n_vars": {"1" * 5000},', 1),
                        encoding="utf-8")
        assert main(["check", "--algorithm", str(path)]) == 2
        assert capsys.readouterr() == \
            ("", "error: invalid document: an integer has more than 4300 digits\n")


_RUN_4_1100 = "output: 1  probability: 1.000000  exact: yes\n"
_CHECK_JSON = ('{"command": "check", "algorithm": "alg.json", "function": %s, "n_vars": 6, '
               '"t_queries": 3, "unitary": true, "inputs_checked": 64, ')

# (argv, exit code, stdout, stderr) of every command in text and --json
# form, run in a directory holding the n = 6 document as alg.json and an
# all-zeros truth table as zeros.json; a stdout naming a golden file is
# that file's text.
OUTPUTS = [
    (["build", "--n", "2"], 0, "build_n2.json", ""),
    (["build", "--n", "2", "--format", "text"], 0,
     "n_vars: 2\nt_queries: 1\ndim: 2\n\nU1 =\n   0.707107   0.707107\n   0.707107  -0.707107\n"
     "Q1 = diag((-1)^x1, (-1)^x2)\n\nfinal =\n   0.707107   0.707107\n   0.707107  -0.707107\n"
     "\nstart:  1.000000   0.000000\nlabels: 1 0\n", ""),
    (["build", "--n", "2", "--out", "built.json"], 0, "", ""),
    (["run", "--n", "4", "--input", "1100"], 0,
     "input: 1100\nfinal:  -1.000000   0.000000   0.000000   0.000000\n" + _RUN_4_1100, ""),
    (["run", "--n", "4", "--input", "1100", "--trace"], 0,
     "input: 1100\n"
     "start       1.000000   0.000000   0.000000   0.000000\n"
     "after U1    0.707107   0.000000   0.707107   0.000000\n"
     "after Q1   -0.707107   0.000000  -0.707107   0.000000\n"
     "after U2   -0.500000  -0.500000  -0.500000  -0.500000\n"
     "after Q2   -0.500000  -0.500000  -0.500000  -0.500000\n"
     "final      -1.000000   0.000000   0.000000   0.000000\n" + _RUN_4_1100, ""),
    (["run", "--n", "4", "--input", "1100", "--json"], 0,
     '{"command": "run", "n_vars": 4, "input": "1100", "output": 1, "probability": '
     '0.9999999999999996, "exact": true, "p0": 0.0, "p1": 0.9999999999999996, "final_state": '
     '[-0.9999999999999998, 0.0, 0.0, 0.0]}\n', ""),
    (["run", "--n", "4", "--input", "1100", "--trace", "--json"], 0, "run_n4_1100_trace.json", ""),
    (["verify", "--n", "4"], 0,
     "inputs tested: 16\nqueries per run: 2\nmin correct-output probability: 0.9999999999999996\n"
     "result: exact\n", ""),
    (["verify", "--n", "4", "--json"], 0, "verify_n4.json", ""),
    (["sensitivity", "--n", "4"], 0, "sensitivity: 4\nwitness: 0000\n", ""),
    (["sensitivity", "--n", "4", "--json"], 0,
     '{"command": "sensitivity", "n_vars": 4, "sensitivity": 4, "witness": "0000"}\n', ""),
    (["classical", "--n", "4", "--input", "0100"], 0,
     "output: 0\nqueries used: 2\nquery order: x1 x2\n", ""),
    (["classical", "--n", "4", "--input", "0100", "--json"], 0, "classical_n4_0100.json", ""),
    (["equal", "--y", "101", "--z", "101"], 0, "equal\n", ""),
    (["equal", "--y", "101", "--z", "101", "--json"], 0,
     '{"command": "equal", "y": "101", "z": "101", "word": "110011", "n_vars": 6, '
     '"equal": true}\n', ""),
    (["equal", "--y", "101", "--z", "100"], 1, "not equal\n", ""),
    (["equal", "--y", "10", "--z", "01", "--json"], 1, "equal_10_01.json", ""),
    (["check", "--algorithm", "alg.json"], 0,
     "matrices unitary: yes\ninputs tested: 64\nresult: exact\n", ""),
    (["check", "--algorithm", "alg.json", "--json"], 0,
     _CHECK_JSON % '"verify"'
     + '"exact": true, "counterexample": null, "min_probability": 0.9999999999999996}\n', ""),
    (["check", "--algorithm", "alg.json", "--function", "zeros.json"], 1,
     "matrices unitary: yes\ninputs tested: 64\nresult: FAILED, first counterexample: 000000\n",
     ""),
    (["check", "--algorithm", "alg.json", "--function", "zeros.json", "--json"], 1,
     _CHECK_JSON % '"zeros.json"'
     + '"exact": false, "counterexample": "000000", "min_probability": 4.440892098500626e-16}\n',
     ""),
    (["verify", "--n", "5", "--json"], 2, "", "error: n must be even, got 5\n"),
    (["run", "--n", "4", "--input", "11x0"], 2, "",
     "error: word must contain only '0' and '1': '11x0'\n"),
]


class TestOutputs:
    @pytest.mark.parametrize("argv,code,out,err", OUTPUTS, ids=[" ".join(c[0]) for c in OUTPUTS])
    def test_command_prints_its_result_once(self, tmp_path, monkeypatch, capsys,
                                            argv, code, out, err):
        (tmp_path / "alg.json").write_bytes((GOLDEN_DIR / "alg6_v2.json").read_bytes())
        (tmp_path / "zeros.json").write_text(
            json.dumps({"schema_version": 1, "arity": 6, "table": [0] * 64}), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        if out.endswith(".json"):
            out = (GOLDEN_DIR / out).read_text(encoding="utf-8")
        assert main(argv) == code
        assert capsys.readouterr() == (out, err)
        if "--out" in argv:
            assert (tmp_path / "built.json").read_text(encoding="utf-8") == \
                (GOLDEN_DIR / "build_n2.json").read_text(encoding="utf-8")


class TestStrictJson:
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_payload_is_one_usage_error(self, monkeypatch, capsys, value):
        # main dumps with allow_nan=False: never NaN or Infinity on stdout.
        monkeypatch.setattr(cli_module, "_cmd_sensitivity", lambda args: (
            0, {"command": "sensitivity", "sensitivity": value}, ["sensitivity: inf"]))
        assert main(["sensitivity", "--n", "4", "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: Out of range float values are not JSON compliant")
        assert main(["sensitivity", "--n", "4"]) == 0
        assert capsys.readouterr() == ("sensitivity: inf\n", "")


class TestOutOfMemory:
    @pytest.mark.parametrize("exc,line", [
        (MemoryError("Unable to allocate 16.0 MiB"), "Unable to allocate 16.0 MiB"),
        (MemoryError(), "an allocation failed"),
    ], ids=["numpy-message", "bare"])
    @pytest.mark.parametrize("command", ["verify", "check"])
    def test_out_of_memory_is_one_usage_error(self, tmp_path, monkeypatch, capsys,
                                              command, exc, line):
        # Exit 1 means a failed verification, so running out of memory is 2.
        def check_exact(alg, f):
            raise exc

        monkeypatch.setattr("qverify.model.check_exact", check_exact)
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(algorithm_to_document(build_algorithm(4))), encoding="utf-8")
        argv = ["verify", "--n", "4"] if command == "verify" else \
            ["check", "--algorithm", str(path), "--json"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: out of memory: {line}\n")


class TestUsage:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# Run `main()` on the process's own command line, as the `qverify` console
# script does, then record the collector's state and how many collections
# started while main ran.
_FRESH_MAIN = """\
import gc, json, sys
from qverify.cli import main
state, sys.argv = sys.argv[1], ["qverify", *sys.argv[2:]]
collections = []
gc.callbacks.append(lambda phase, info: phase == "start" and collections.append(info))
try:
    code = main()
finally:
    with open(state, "w", encoding="utf-8") as fh:
        json.dump([gc.isenabled(), gc.get_freeze_count(), len(collections)], fh)
sys.exit(code)
"""

# (argv, exit code, stdout or its golden file, stderr lines, start of the last one)
COLLECTOR_CASES = [
    (["verify", "--n", "4", "--json"], 0, "verify_n4.json", 0, ""),
    (["equal", "--y", "10", "--z", "01", "--json"], 1, "equal_10_01.json", 0, ""),
    (["check", "--algorithm", "not-utf8.json"], 2, "", 1, "error: invalid document:"),
    (["verify", "--n"], 2, "", 2, "qverify verify: error: argument --n: expected one argument"),
]


def _assert_outputs(stdout, stderr, out, err_lines, err):
    if out.endswith(".json"):
        out = (GOLDEN_DIR / out).read_text(encoding="utf-8")
    assert stdout == out
    lines = stderr.splitlines()
    assert len(lines) == err_lines, stderr
    assert not lines or lines[-1].startswith(err), stderr


class TestCollector:
    """Only `main` on the process's own command line turns the collector off."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("argv,code,out,err_lines,err", COLLECTOR_CASES,
                             ids=[" ".join(c[0]) for c in COLLECTOR_CASES])
    def test_main_with_argv_leaves_the_collector_as_it_was(self, tmp_path, monkeypatch, capsys,
                                                          argv, code, out, err_lines, err,
                                                          enabled):
        (tmp_path / "not-utf8.json").write_bytes(b"\xff\xfe")
        monkeypatch.chdir(tmp_path)
        frozen = gc.get_freeze_count()
        if not enabled:
            gc.disable()
        try:
            try:
                got = main(argv)
            except SystemExit as exc:
                got = exc.code
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        finally:
            gc.enable()
        assert got == code
        _assert_outputs(*capsys.readouterr(), out, err_lines, err)

    @pytest.mark.parametrize("argv,code,out,err_lines,err", COLLECTOR_CASES,
                             ids=[" ".join(c[0]) for c in COLLECTOR_CASES])
    def test_own_command_line_runs_uncollected_and_exits_frozen(self, tmp_path, argv, code,
                                                               out, err_lines, err):
        (tmp_path / "not-utf8.json").write_bytes(b"\xff\xfe")
        proc = subprocess.run([sys.executable, "-c", _FRESH_MAIN, "state.json", *argv],
                              cwd=tmp_path, env=_fresh_env(), capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        _assert_outputs(proc.stdout, proc.stderr, out, err_lines, err)
        enabled, frozen, collections = json.loads((tmp_path / "state.json").read_text())
        assert (enabled, collections) == (True, 0)
        assert frozen > 0


def regenerate_golden_files() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv, expected_code in GOLDEN_CASES:
        code, out = cli(argv)
        assert code == expected_code, (name, code)
        (GOLDEN_DIR / name).write_text(out, encoding="utf-8")
        print(f"wrote {name} ({len(out)} bytes)")


if __name__ == "__main__":
    regenerate_golden_files()
