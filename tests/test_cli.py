import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from qverify import algorithm_to_document, build_algorithm, load_algorithm
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
# nonzeros form; the n = 4 "algorithm" document is all dense rows.
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
    ("function", ["arity"], True),
    ("function", ["table", 0], -1),
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
    # Finite entries whose swept probabilities overflow float64.
    ("algorithm", ["final_unitary", 0, 0], 1e200),
    ("algorithm", ["stages", 0, "unitary", 0, 0], 1e300),
]


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


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


class TestClassical:
    def test_worst_case_word(self):
        code, out = cli(["classical", "--n", "4", "--input", "1111", "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["output"] == 1
        assert payload["queries_used"] == 4
        assert payload["query_sequence"] == [1, 2, 3, 4]


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
        v1 = GOLDEN_DIR / "alg6_v1.json"
        v2 = tmp_path / "alg6.json"
        assert main(["build", "--n", "6", "--out", str(v2)]) == 0
        assert json.loads(v2.read_text(encoding="utf-8"))["schema_version"] == 2
        outputs = []
        for path in (v1, v2):
            code, out = cli(["check", "--algorithm", str(path), "--json"])
            assert code == 0
            outputs.append(out.replace(json.dumps(str(path)), '"<path>"'))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["exact"] is True

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
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check", "--algorithm", "/nonexistent.json"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("document,keys,value", BAD_INPUTS,
                             ids=[f"{c[0]}-{'.'.join(map(str, c[1]))}-{c[2]}" for c in BAD_INPUTS])
    def test_bad_input_is_one_line_usage_error(self, tmp_path, capsys, document, keys, value):
        docs = {"algorithm": algorithm_to_document(build_algorithm(4)),
                "sparse": algorithm_to_document(build_algorithm(8)),
                "function": {"schema_version": 1, "arity": 4, "table": [0] * 16}}
        target = docs[document]
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
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
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestUsage:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def regenerate_golden_files() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv, expected_code in GOLDEN_CASES:
        code, out = cli(argv)
        assert code == expected_code, (name, code)
        (GOLDEN_DIR / name).write_text(out, encoding="utf-8")
        print(f"wrote {name} ({len(out)} bytes)")


if __name__ == "__main__":
    regenerate_golden_files()
