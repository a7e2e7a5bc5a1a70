"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 10 is parametrized over the four stage-1 block entries and
convicts every flip. A flip in a column the start state reaches changes
some run, and the exhaustive sweep convicts it with the naive reference's
counterexample. A flip in a column the start state never reaches changes
no run (an equivalent mutant, so no counterexample can exist); the test
proves that from the traces and convicts it at matrix level with the
unitarity check. The companion test shows every entry is also pinned by
the matrix fixtures.
"""

import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

from qverify import (
    BooleanFunction,
    QueryAlgorithm,
    StringPair,
    build_algorithm,
    build_stage_query,
    build_stage_unitary,
    check_exact,
    classical_worst_case,
    hadamard_power,
    index_set,
    is_unitary,
    load_algorithm,
    measure,
    realize_query,
    run,
    run_batch,
    save_algorithm,
    sensitivity,
    strings_equal,
)
from qverify.cli import main as cli_main

import refdata

GOLDEN_DIR = Path(__file__).parent / "golden"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def test_criterion_01_four_bit_run_table():
    started = time.perf_counter()
    alg = build_algorithm(4)
    for word, (stage1, stage2, final, result) in refdata.FOUR_BIT_RUNS.items():
        trace = run(alg, word)
        assert np.abs(trace.after_stage(1) - np.asarray(stage1)).max() <= 1e-9, word
        assert np.abs(trace.after_stage(2) - np.asarray(stage2)).max() <= 1e-9, word
        assert np.abs(trace.final - np.asarray(final)).max() <= 1e-9, word
        p0, p1 = measure(trace.final, alg.labels)
        assert (1 if p1 > p0 else 0) == result, word
    elapsed = time.perf_counter() - started
    _report(1, elapsed < 1.0, f"all 16 four-bit rows reproduced in {elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_02_six_bit_fixture_match(alg6):
    expected_units = (refdata.SIX_BIT_U1, refdata.SIX_BIT_U2, refdata.SIX_BIT_U3)
    expected_vars = (refdata.SIX_BIT_Q1_VARS, refdata.SIX_BIT_Q2_VARS,
                     refdata.SIX_BIT_Q3_VARS)
    for stage, unit, vars_ in zip(alg6.stages, expected_units, expected_vars):
        assert np.abs(stage.unitary - unit).max() <= 1e-12
        assert stage.query.tolist() == vars_
    h = hadamard_power(1)
    tensor_final = np.kron(np.kron(h, h), h)
    assert np.abs(alg6.final_unitary - tensor_final).max() <= 1e-12
    assert np.abs(alg6.final_unitary[0] - refdata.E).max() <= 1e-12
    _report(2, True, "six-bit stage matrices, query layouts, and final transform match")


def test_criterion_03_exactness_through_sixteen_variables():
    timings = {}
    for n in range(2, 17, 2):
        alg = build_algorithm(n)
        started = time.perf_counter()
        report = check_exact(alg, BooleanFunction.verify(n))
        timings[n] = time.perf_counter() - started
        assert report.exact and report.counterexample is None, n
        assert report.min_probability >= 1 - 1e-9, n
        assert report.inputs_checked == 1 << n, n
        assert alg.t_queries == n // 2, n
    ok = timings[16] < 60.0
    _report(3, ok, "exact on all words for n=2..16; "
                   f"n=16 sweep took {timings[16]:.2f}s (< 60s, single-threaded)")
    assert ok


def test_criterion_04_classical_gap():
    for n in range(2, 13, 2):
        f = BooleanFunction.verify(n)
        value, witness = sensitivity(f)
        assert value == n, n
        assert f.evaluate(witness) == 1, n
    ratios = set()
    for n in range(2, 17, 2):
        worst = classical_worst_case(n)
        assert worst == n, n
        quantum = build_algorithm(n).t_queries
        ratios.add((quantum, worst))
        assert 2 * quantum == worst, n
    _report(4, True, f"sensitivity == n and classical worst case == n; "
                     f"quantum/classical ratio 1/2 at {len(ratios)} sizes")


def test_criterion_05_accepting_set_cardinality():
    for n in range(2, 17, 2):
        count = int(BooleanFunction.verify(n).values().sum())
        assert count == 1 << (n // 2), n
    f4 = BooleanFunction.verify(4)
    accepting = {format(w, "04b") for w in range(16) if f4.evaluate(format(w, "04b"))}
    assert accepting == refdata.FOUR_BIT_ACCEPTING
    _report(5, True, "accepting-set size is 2**(n/2) for n=2..16, four-bit set explicit")


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_criterion_06_amplitude_ladder(n):
    alg = build_algorithm(n)
    t, k = alg.t_queries, alg.dim
    snapshots = run_batch(alg, np.arange(1 << n))
    for i in range(1, t + 1):
        state = snapshots[2 * i]
        magnitudes = np.abs(state)
        inside = np.zeros(k, dtype=bool)
        inside[index_set(i, k)] = True
        assert np.abs(magnitudes[:, inside] - 2.0 ** (-i / 2)).max() <= 1e-9, i
        if (~inside).any():
            assert magnitudes[:, ~inside].max() <= 1e-9, i
        assert ((magnitudes > 1e-9).sum(axis=1) == (1 << i)).all(), i

    accepting = BooleanFunction.verify(n).values().astype(bool)
    last_stage = snapshots[2 * t]
    positive = last_stage > 0
    uniform_sign = positive.all(axis=1) | (~positive).all(axis=1)
    assert uniform_sign[accepting].all()

    final = snapshots[-1]
    assert np.abs(final[~accepting, 0]).max(initial=0.0) <= 1e-9
    assert (positive[~accepting].sum(axis=1) == k // 2).all()
    _report(6, True, f"n={n}: ladder magnitudes, accepting signs, rejecting zeros all hold")


def test_criterion_07_string_equality():
    for k in range(1, 7):
        for a in range(1 << k):
            for b in range(1 << k):
                pair = StringPair(format(a, f"0{k}b"), format(b, f"0{k}b"))
                assert strings_equal(pair) == (a == b), pair
    rng = np.random.default_rng(31415)
    checked = 0
    for _ in range(1000):
        k = int(rng.integers(1, 13))
        y = "".join(str(b) for b in rng.integers(0, 2, size=k))
        z = y if rng.random() < 0.5 else "".join(str(b) for b in rng.integers(0, 2, size=k))
        assert strings_equal(StringPair(y, z)) == (y == z)
        checked += 1
    _report(7, True, f"equality matches direct comparison: exhaustive k<=6 plus {checked} random pairs k<=12")


def test_criterion_08_builder_unitarity_through_twenty_four():
    rng = np.random.default_rng(8)
    for n in range(2, 17, 2):
        alg = build_algorithm(n)
        for stage in alg.stages:
            assert is_unitary(stage.unitary, tol=1e-12), n
        assert is_unitary(alg.final_unitary, tol=1e-12), n
    # Larger instances matrix by matrix to keep memory flat.
    for n in range(18, 25, 2):
        t = n // 2
        k = 1 << t
        for i in range(1, t + 1):
            assert is_unitary(build_stage_unitary(i, k), tol=1e-12), (n, i)
        assert is_unitary(hadamard_power(t), tol=1e-12), n
    # Realized query matrices are +-1 diagonals, unitary for any word.
    for n in range(2, 13, 2):
        k = 1 << (n // 2)
        word = "".join(str(b) for b in rng.integers(0, 2, size=n))
        for i in range(1, n // 2 + 1):
            assert is_unitary(realize_query(build_stage_query(i, k), word), tol=1e-12)
    _report(8, True, "every builder matrix for n=2..24 passes is_unitary at 1e-12")


def test_criterion_09_serialization_round_trip(tmp_path):
    alg = build_algorithm(6)
    path = tmp_path / "alg.json"
    save_algorithm(alg, path)
    loaded = load_algorithm(path)
    f = BooleanFunction.verify(6)
    assert check_exact(loaded, f) == check_exact(alg, f)
    for word in ("000000", "010110", "111111", "101010"):
        original, reloaded = run(alg, word), run(loaded, word)
        for a, b in zip(original.states, reloaded.states):
            assert np.array_equal(a, b), word

    argv = ["verify", "--n", "4", "--json"]
    first, second = _cli(argv), _cli(argv)
    assert first == second
    golden = (GOLDEN_DIR / "verify_n4.json").read_text(encoding="utf-8")
    assert first[1] == golden
    _report(9, True, "dump/load preserves verdicts and traces bitwise; --json output is golden-stable")


# Stage-1 block entries of the four-bit instance, (row, col).
_BLOCK_ENTRIES = [(0, 0), (0, 2), (2, 0), (2, 2)]


@pytest.mark.parametrize("row,col", _BLOCK_ENTRIES)
def test_criterion_10_mutation_sensitivity(row, col, tmp_path):
    """Every sign flip of one stage-1 block entry is convicted.

    Where the start state reaches the entry's column, the flip changes some
    run: the exactness sweep must fail with the naive reference's
    counterexample. Where it does not, the flip changes no run, so no
    behavioural check can see it: every trace must stay bitwise equal, the
    sweep must report exactly what it reports for the unmutated algorithm,
    and the matrix-level check (`unitary_within`, `check --json`) convicts
    the flip instead.
    """
    alg = build_algorithm(4)
    f = BooleanFunction.verify(4)
    # Stage 1 only ever multiplies column 0; both branches below stay live.
    assert np.flatnonzero(alg.start).tolist() == [0]
    mutated = np.array(alg.stages[0].unitary)
    mutated[row, col] *= -1.0
    tampered = QueryAlgorithm(4, alg.start,
                              [(mutated, alg.stages[0].query), alg.stages[1]],
                              alg.final_unitary, alg.labels)
    report = check_exact(tampered, f)
    counterexample, min_prob = refdata.naive_check(tampered, f)

    if alg.start[col] != 0:
        ok = (not report.exact) and report.counterexample is not None
        _report(10, ok, f"flip U1[{row},{col}] (reachable column): "
                + (f"counterexample {report.counterexample}" if ok
                   else "no counterexample found"))
        assert ok, f"sign flip at U1[{row},{col}] was not detected by the exactness sweep"
        assert report.counterexample == counterexample
        assert report.min_probability == pytest.approx(min_prob, abs=1e-12)
        return

    for w in range(1 << 4):
        word = format(w, "04b")
        assert [s.tobytes() for s in run(tampered, word).states] == \
            [s.tobytes() for s in run(alg, word).states], word
    assert report == check_exact(alg, f)
    assert report.exact and report.counterexample is None and counterexample is None
    assert not tampered.unitary_within()
    path = tmp_path / "tampered.json"
    save_algorithm(tampered, path)
    code, out = _cli(["check", "--algorithm", str(path), "--json"])
    doc = json.loads(out)
    assert code == 0 and doc["exact"] is True
    assert doc["unitary"] is False
    _report(10, True, f"flip U1[{row},{col}] (unreachable column): every run unchanged, "
            "convicted by the unitarity check")


def test_criterion_10_companion_matrix_fixtures_pin_every_entry():
    base = build_stage_unitary(1, 4)
    assert np.abs(base - refdata.FOUR_BIT_U1).max() <= 1e-12
    for row, col in _BLOCK_ENTRIES:
        mutated = np.array(base)
        mutated[row, col] *= -1.0
        assert np.abs(mutated - refdata.FOUR_BIT_U1).max() > 1.0
    _report(10, True, "companion: every block-entry flip violates the stage-matrix fixture")
