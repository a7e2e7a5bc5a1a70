"""Mutation suite: the checker's power on every single-site mutant of the
n = 4, 6 and 8 builders.

A mutant sets one query slot to another value in 0..n, adds 0.1 to one
stored stage entry or flips its sign, or flips one label. Each must either
be convicted by check_exact, with a counterexample that compute confirms on
that word, or change no run: the same labels, and every word's final state
within 1e-12 of the builder's. The mutants that change no run are exactly
those in query slots and stage columns that the start state never reaches.
A row of a final factor scaled by 1.1 adds mass to the correct output alone,
and is convicted by exact's upper bound.
"""

import numpy as np
import pytest

from qverify import BooleanFunction, Kron, Nonzeros, QueryAlgorithm, build_algorithm, \
    check_exact, compute, run_batch


def _with(alg, stages=None, labels=None):
    return QueryAlgorithm(alg.n_vars, alg.start, alg.stages if stages is None else stages,
                          alg.final, alg.labels if labels is None else labels)


def _with_stage(alg, i, stage):
    stages = list(alg.stages)
    stages[i] = stage
    return _with(alg, stages=stages)


def _query_slots(alg):
    for i, (nonzeros, query) in enumerate(alg.stages):
        for slot in range(alg.dim):
            for value in range(alg.n_vars + 1):
                if value != query[slot]:
                    changed = query.copy()
                    changed[slot] = value
                    yield _with_stage(alg, i, (nonzeros, changed))


def _entries(change):
    def mutants(alg):
        for i, ((rows, cols, values), query) in enumerate(alg.stages):
            for k in range(values.size):
                changed = values.copy()
                changed[k] = change(changed[k])
                yield _with_stage(alg, i, (Nonzeros(rows, cols, changed), query))
    return mutants


def _labels(alg):
    for j in range(alg.dim):
        changed = alg.labels.copy()
        changed[j] ^= 1
        yield _with(alg, labels=changed)


FAMILIES = {
    "query-slot": _query_slots,
    "entry-plus-0.1": _entries(lambda v: v + 0.1),
    "entry-sign": _entries(lambda v: -v),
    "label": _labels,
}

# (convicted, changing no run) per builder n and family.
COUNTS = {
    4: {"query-slot": (24, 8), "entry-plus-0.1": (6, 8), "entry-sign": (6, 8), "label": (4, 0)},
    6: {"query-slot": (84, 60), "entry-plus-0.1": (14, 24), "entry-sign": (14, 24),
        "label": (8, 0)},
    8: {"query-slot": (240, 272), "entry-plus-0.1": (30, 64), "entry-sign": (30, 64),
        "label": (16, 0)},
}


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("n", sorted(COUNTS))
def test_every_mutant_is_convicted_or_changes_no_run(n, family):
    alg, f = build_algorithm(n), BooleanFunction.verify(n)
    words = range(1 << n)
    finals = run_batch(alg, words)[-1]
    convicted = unchanged = 0
    for mutant in FAMILIES[family](alg):
        report = check_exact(mutant, f)
        if report.exact:
            # A survivor must be equivalent to the builder, not missed damage.
            assert np.array_equal(mutant.labels, alg.labels)
            drift = np.abs(run_batch(mutant, words)[-1] - finals).max()
            assert drift <= 1e-12, (family, report.min_probability, drift)
            unchanged += 1
        else:
            word = report.counterexample
            result = compute(mutant, word)
            assert not (result.exact and result.output == f.evaluate(word)), (family, word, result)
            convicted += 1
    assert (convicted, unchanged) == COUNTS[n][family]


def test_wrong_label_mass_convicts_the_damaged_builder():
    # Stage 1's entry (0, 0) + 0.1: word 000000 puts 1.146 on the right label
    # and 0.005 on the wrong one.
    alg = build_algorithm(6)
    (rows, cols, values), query = alg.stages[0]
    assert (rows[0], cols[0]) == (0, 0)
    changed = values.copy()
    changed[0] += 0.1
    damaged = _with_stage(alg, 0, (Nonzeros(rows, cols, changed), query))
    report = check_exact(damaged, BooleanFunction.verify(6))
    assert (report.exact, report.counterexample) == (False, "000000")
    assert report.min_probability > 1.0
    result = compute(damaged, "000000")
    assert (result.output, result.exact) == (1, False)
    assert result.p0 == pytest.approx(0.005, abs=1e-12)
    assert not damaged.unitary_within()


def _final_rows_scaled(alg, factor):
    """Each row of each final factor scaled by `factor`, one mutant a row."""
    dense = [f.dense(d) for f, d in zip(alg.final.factors, alg.final.dims)]
    for i, d in enumerate(alg.final.dims):
        for row in range(d):
            changed = list(dense)
            changed[i] = dense[i].copy()
            changed[i][row] *= factor
            yield QueryAlgorithm(alg.n_vars, alg.start, alg.stages,
                                 Kron(tuple(changed), alg.final.dims), alg.labels)


def test_mass_added_to_the_correct_output_alone_is_convicted():
    convicted = 0
    for n in (4, 6, 8):
        alg, f = build_algorithm(n), BooleanFunction.verify(n)
        for mutant in _final_rows_scaled(alg, 1.1):
            report = check_exact(mutant, f)
            assert not report.exact
            word = report.counterexample
            result = compute(mutant, word)
            assert not (result.exact and result.output == f.evaluate(word)), (n, word, result)
            convicted += 1
    assert convicted == 18
