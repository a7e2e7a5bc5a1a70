"""Differential tests: check_exact against refdata.naive_check, which runs
every word through `run`, on two generated families of algorithms.

* Random algorithms: n <= 6 variables, K in {2, 4, 8} amplitudes and at
  most 3 stages, each stage a random orthogonal matrix, a signed
  permutation or Hadamard blocks, given dense or as Nonzeros; var maps
  drawn per slot from 0..n, so fixed slots and re-queried variables occur;
  a final matrix given whole or as a Kron of 2-3 factors in mixed forms;
  start states with zero entries; random or uniform labels; optional 1e-3
  noise on one matrix, so that both of the sweep's label paths run; and a
  random truth table, or the algorithm's own outputs with a few flipped.
* Exact algorithms derived from the builder (n = 2, 4, 6): variables
  renamed, output basis permuted with the labels to match, and a
  query-free Q, Q^T stage pair inserted. Checked against the renamed
  verifier with one word flipped, that word is the counterexample.

Each report must also survive a document round trip unchanged, and the
document writer must give the bytes of json.dumps(doc).
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qverify import (BooleanFunction, Kron, Nonzeros, QueryAlgorithm, build_algorithm,
                     check_exact, compute)
from qverify.serialize import algorithm_to_document, document_to_algorithm, dumps_algorithm

import refdata

KINDS = ("orthogonal", "signed-permutation", "hadamard")
# Factor sides, two or three of them, whose product is the dimension.
KRON_SIDES = {4: [(2, 2)], 8: [(2, 4), (4, 2), (2, 2, 2)]}
SEEDS = st.integers(0, 2**32 - 1)


def _matrix(kind: str, size: int, rng) -> np.ndarray:
    if kind == "orthogonal":
        return np.linalg.qr(rng.standard_normal((size, size)))[0]
    if kind == "signed-permutation":
        return np.eye(size)[rng.permutation(size)] * rng.choice([-1.0, 1.0], size)
    # 2x2 Hadamard blocks at one or more disjoint random slot pairs.
    m = np.eye(size)
    pairs = rng.permutation(size)[:2 * rng.integers(1, size // 2 + 1)].reshape(-1, 2)
    for pair in pairs:
        m[np.ix_(pair, pair)] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return m


def _form(m: np.ndarray, sparse: bool):
    return Nonzeros.of(m) if sparse else m


def _assert_agrees(alg: QueryAlgorithm, f: BooleanFunction):
    report = check_exact(alg, f)
    counterexample, min_probability = refdata.naive_check(alg, f)
    assert report.counterexample == counterexample
    assert report.exact == (counterexample is None)
    assert abs(report.min_probability - min_probability) <= 1e-12
    assert report.inputs_checked == 1 << alg.n_vars
    doc = json.loads(json.dumps(algorithm_to_document(alg)))
    assert check_exact(document_to_algorithm(doc), f) == report
    assert dumps_algorithm(alg) == json.dumps(doc)
    return report


@st.composite
def random_algorithms(draw):
    n, dim, t = draw(st.integers(1, 6)), draw(st.sampled_from([2, 4, 8])), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(SEEDS))
    matrices = [_matrix(draw(st.sampled_from(KINDS)), dim, rng) for _ in range(t)]
    sides = draw(st.sampled_from([(dim,), *KRON_SIDES.get(dim, [])]))
    matrices += [_matrix(draw(st.sampled_from(KINDS)), side, rng) for side in sides]
    noisy = draw(st.none() | st.integers(0, len(matrices) - 1))
    if noisy is not None:
        matrices[noisy] = matrices[noisy] + 1e-3 * rng.standard_normal(matrices[noisy].shape)
    forms = [_form(m, draw(st.booleans())) for m in matrices]
    stages = [(m, rng.integers(0, n + 1, dim)) for m in forms[:t]]
    final = forms[t] if len(sides) == 1 else Kron(tuple(forms[t:]), sides)

    start = rng.standard_normal(dim)
    start[rng.permutation(dim)[:draw(st.integers(0, dim - 1))]] = 0.0
    labels = {"random": rng.integers(0, 2, dim), "zeros": np.zeros(dim, dtype=int),
              "ones": np.ones(dim, dtype=int)}[draw(st.sampled_from(["random", "zeros", "ones"]))]
    alg = QueryAlgorithm(n, start / np.linalg.norm(start), stages, final, labels)
    table = rng.integers(0, 2, 1 << n)
    if draw(st.booleans()):
        # The algorithm's own outputs, each flipped with probability 1/8,
        # so that the first counterexample is not always the first word.
        own = [compute(alg, format(w, f"0{n}b")).output for w in range(1 << n)]
        table = np.array(own) ^ (rng.random(1 << n) < 0.125)
    return alg, BooleanFunction(n, table.tolist())


@st.composite
def derived_algorithms(draw):
    """(algorithm, function, counterexample): builder output made
    unrecognizable but still exact for its renamed verifier, and that
    verifier with one word flipped, which is the counterexample."""
    n = draw(st.sampled_from([2, 4, 6]))
    rng = np.random.default_rng(draw(SEEDS))
    alg = build_algorithm(n)
    dim = alg.dim

    # Variable v of the builder becomes perm[v]: word x reads as the
    # builder's word y with y_v = x_perm[v].
    perm = np.concatenate(([0], rng.permutation(n) + 1))
    stages = [(stage.nonzeros if draw(st.booleans()) else stage.unitary, perm[stage.query])
              for stage in alg.stages]
    q = _matrix(draw(st.sampled_from(KINDS)), dim, rng)
    fixed = np.zeros(dim, dtype=np.int64)
    at = draw(st.integers(0, len(stages)))
    stages[at:at] = [(_form(m, draw(st.booleans())), fixed) for m in (q, q.T)]

    # Output row i becomes row rows[i], whole or one factor at a time.
    if draw(st.booleans()):
        rows = rng.permutation(dim)
        final, labels = _form(alg.final_unitary[rows], draw(st.booleans())), alg.labels[rows]
    else:
        cuts = [rng.permutation(d) for d in alg.final.dims]
        final = Kron(tuple(_form(f.dense(d)[cut], draw(st.booleans()))
                           for f, d, cut in zip(alg.final.factors, alg.final.dims, cuts)),
                     alg.final.dims)
        labels = alg.labels.reshape(alg.final.dims)[np.ix_(*cuts)].ravel()
    derived = QueryAlgorithm(n, alg.start, stages, final, labels)

    weights = 1 << (n - 1 - np.arange(n))
    bits = (np.arange(1 << n)[:, None] & weights) != 0  # bits[w, k - 1] is x_k of word w
    builder_words = bits[:, perm[1:] - 1] @ weights
    table = BooleanFunction.verify(n).values()[builder_words]
    flipped = draw(st.integers(0, (1 << n) - 1))
    table[flipped] ^= 1
    return derived, BooleanFunction(n, table.tolist()), format(flipped, f"0{n}b")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(random_algorithms())
def test_random_algorithms_agree_with_the_naive_check(case):
    _assert_agrees(*case)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(derived_algorithms())
def test_derived_exact_algorithms_fail_on_the_flipped_word(case):
    alg, f, flipped = case
    report = _assert_agrees(alg, f)
    assert report.counterexample == flipped
