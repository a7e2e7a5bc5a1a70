"""Numeric kernels for exhaustive sweeps and the classical side.

Every kernel has one numpy implementation. Input words are passed as
integers; variable k (1-based) of an n-variable word w is the bit
(w >> (n - k)) & 1, so integer order equals lexicographic word order.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import MATRIX_TOL

# ---------------------------------------------------------------------------
# exhaustive exactness sweep
#
# Runs the unitary/query pipeline of any algorithm on every input integer in
# [lo, hi) against a table of expected output bits, and returns
# (first_failure, min_correct_probability) where first_failure is -1 when
# every input is computed exactly and correctly. Three reductions keep it
# cheaper than one dense pipeline per word while computing the same values:
#
#   * shared prefixes: after stage s a word's state depends only on the
#     variables queried so far, so each stage unitary is applied once per
#     distinct prefix in the chunk and the result fanned out;
#   * reachable columns: only the basis states the start state can reach
#     through the nonzero entries of the stage unitaries are carried (sound
#     because the model rejects non-finite matrices, so 0 * x is always 0);
#   * labelled rows: when the final matrix is orthogonal on the reachable
#     columns, only the output rows of the smaller label set are computed
#     and the other probability is |s|^2 minus theirs.
# ---------------------------------------------------------------------------


def _partial_label(labels: np.ndarray) -> int:
    """The label whose output rows a reduced final matrix keeps: the smaller
    label set, label 1 on a tie."""
    ones = int(np.count_nonzero(labels))
    return 1 if ones <= labels.size - ones else 0


def sweep_arrays(start, unitaries, var_maps, final, labels):
    """Kernel-ready arrays for sweep_range, built once per exactness check.

    Returns (start, stage_uts, var_maps, final_t, labels): the start state on
    its support; per stage, the transposed unitary block from the previously
    reachable columns to the newly reachable ones and the query var map on
    the latter; the transposed final matrix on the last reachable columns,
    keeping only the rows labelled _partial_label(labels) when it is
    orthogonal there (within MATRIX_TOL as a bound on |s|^2 error); and the
    unchanged labels.
    """
    support = np.flatnonzero(start)
    cols = support
    stage_uts, stage_maps = [], []
    for unitary, var_map in zip(unitaries, var_maps):
        rows = np.flatnonzero((unitary != 0)[:, cols].any(axis=1))
        stage_uts.append(np.ascontiguousarray(unitary[np.ix_(rows, cols)].T))
        stage_maps.append(var_map[rows])
        cols = rows
    final_cols = final[:, cols]
    gram = final_cols.T @ final_cols
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    # The row-sum norm bounds the spectral norm of the symmetric gram error,
    # hence how far |F s|^2 can be from |s|^2.
    if float(np.abs(gram).sum(axis=1).max(initial=0.0)) <= MATRIX_TOL:
        final_cols = final_cols[labels == _partial_label(labels)]
    return (start[support], tuple(stage_uts), tuple(stage_maps),
            np.ascontiguousarray(final_cols.T), labels)


def sweep_range(start, stage_uts, var_maps, final_t, labels, n_vars, lo, hi, expected, tol):
    """Sweep inputs [lo, hi) through arrays from sweep_arrays; see above."""
    words = np.arange(lo, hi, dtype=np.int64)
    # Shift of variable k; a fixed slot (k = 0) reads bit n, which is 0.
    shifts = n_vars - np.arange(n_vars + 1, dtype=np.int64)
    states = start[None, :]
    row_of = np.zeros(hi - lo, dtype=np.int64)
    mask = 0
    for ut, var_map in zip(stage_uts, var_maps):
        mixed = states @ ut
        stage_mask = int(np.bitwise_or.reduce(1 << shifts[var_map[var_map > 0]]))
        mask |= stage_mask
        # reps: the first word of each distinct prefix, in prefix order.
        _, reps, row_of_next = np.unique(words & mask, return_index=True, return_inverse=True)
        # One +-1 row per distinct setting of this stage's variables.
        patterns, pattern_of = np.unique(words[reps] & stage_mask, return_inverse=True)
        signs = (1.0 - 2.0 * ((patterns[:, None] >> shifts) & 1))[:, var_map]
        states = mixed[row_of[reps]] * signs[pattern_of]
        row_of = row_of_next
    out = states @ final_t
    if final_t.shape[1] == labels.size:
        probs = out * out
        lab1 = labels.astype(np.float64)
        p1 = probs @ lab1
        p0 = probs @ (1.0 - lab1)
    else:
        kept = np.einsum("ij,ij->i", out, out)
        rest = np.maximum(np.einsum("ij,ij->i", states, states) - kept, 0.0)
        p1, p0 = (kept, rest) if _partial_label(labels) == 1 else (rest, kept)
    p1 = p1[row_of]
    p0 = p0[row_of]
    outputs = (p1 > p0).astype(np.uint8)
    p_max = np.maximum(p0, p1)
    p_correct = np.where(expected == 1, p1, p0)
    ok = (outputs == expected) & (p_max >= 1.0 - tol)
    first = -1 if bool(ok.all()) else lo + int(np.argmin(ok))
    return first, float(p_correct.min())


# ---------------------------------------------------------------------------
# structure-aware references for builder output
#
# The built verifier never needs its dense matrices to be executed: stage i
# only mixes 2**(i-1) pairs of amplitudes with a 2x2 rotation and flips
# signs at those pair slots, and the final transformation is a fast
# Walsh-Hadamard pass. string equality runs on pair_run; pair_sweep_range is
# an independent reference that tests and the benchmark compare the general
# sweep against. Equivalence with the dense pipeline is pinned by tests.
# ---------------------------------------------------------------------------


def pair_run(n_vars: int, word: int) -> np.ndarray:
    """Final state of the built n-variable verifier on one input word."""
    t_queries = n_vars // 2
    dim = 1 << t_queries
    inv = 1.0 / math.sqrt(2.0)
    state = np.zeros(dim, dtype=np.float64)
    state[0] = 1.0
    for i in range(1, t_queries + 1):
        step = dim >> i
        top = np.arange(0, dim, 2 * step)
        bottom = top + step
        a = state[top].copy()
        b = state[bottom]
        state[top] = (a + b) * inv
        state[bottom] = (a - b) * inv
        if (word >> (n_vars - (2 * i - 1))) & 1:
            state[top] = -state[top]
        if (word >> (n_vars - 2 * i)) & 1:
            state[bottom] = -state[bottom]
    half = 1
    while half < dim:
        view = state.reshape(-1, 2 * half)
        a = view[:, :half].copy()
        b = view[:, half:].copy()
        view[:, :half] = a + b
        view[:, half:] = a - b
        half *= 2
    state *= 2.0 ** (-t_queries / 2.0)
    return state


def pair_sweep_range(n_vars: int, lo: int, hi: int, expected, tol) -> tuple[int, float]:
    """Exactness sweep of the built verifier over words [lo, hi).

    Only valid for builder output (paired-rotation stages, labels picking
    out basis state 0): the final transformation's first row is uniform, so
    p1 collapses to (sum(state) * 2**(-T/2))**2 and p0 to |state|^2 - p1.
    """
    t_queries = n_vars // 2
    dim = 1 << t_queries
    count = hi - lo
    inv = 1.0 / math.sqrt(2.0)
    scale = 2.0 ** (-t_queries / 2.0)
    ints = np.arange(lo, hi, dtype=np.int64)
    states = np.zeros((count, dim), dtype=np.float64)
    states[:, 0] = 1.0
    for i in range(1, t_queries + 1):
        step = dim >> i
        top = np.arange(0, dim, 2 * step)
        bottom = top + step
        a = states[:, top].copy()
        b = states[:, bottom]
        sign1 = 1.0 - 2.0 * ((ints >> (n_vars - (2 * i - 1))) & 1)
        sign2 = 1.0 - 2.0 * ((ints >> (n_vars - 2 * i)) & 1)
        states[:, top] = (a + b) * inv * sign1[:, None]
        states[:, bottom] = (a - b) * inv * sign2[:, None]
    amp0 = states.sum(axis=1) * scale
    p1 = amp0 * amp0
    p0 = np.maximum((states * states).sum(axis=1) - p1, 0.0)
    outputs = (p1 > p0).astype(np.uint8)
    p_max = np.maximum(p0, p1)
    p_correct = np.where(expected == 1, p1, p0)
    ok = (outputs == expected) & (p_max >= 1.0 - tol)
    first = -1 if bool(ok.all()) else lo + int(np.argmin(ok))
    return first, float(p_correct.min())


# ---------------------------------------------------------------------------
# classical side: truth values, sensitivity, decision-tree query counts
# ---------------------------------------------------------------------------


def verify_values_range(n_vars: int, lo: int, hi: int) -> np.ndarray:
    """Pair-equality verifier outputs for every input integer in [lo, hi)."""
    ints = np.arange(lo, hi, dtype=np.int64)
    acc = np.ones(hi - lo, dtype=np.uint8)
    for j in range(n_vars // 2):
        delta = (ints >> (n_vars - (2 * j + 1))) ^ (ints >> (n_vars - (2 * j + 2)))
        acc &= ((delta & 1) == 0)
    return acc


def table_sensitivity(table: np.ndarray, n_vars: int) -> tuple[int, int]:
    """(max sensitivity, lexicographically first maximizing input)."""
    table = np.ascontiguousarray(table, dtype=np.uint8)
    idx = np.arange(table.shape[0], dtype=np.int64)
    counts = np.zeros(table.shape[0], dtype=np.int64)
    for pos in range(n_vars):
        counts += table != table[idx ^ (1 << pos)]
    best = int(np.argmax(counts))
    return int(counts[best]), best


def classical_query_counts(n_vars: int) -> np.ndarray:
    """Queries used by the left-to-right pair scan, for every input word."""
    size = 1 << n_vars
    ints = np.arange(size, dtype=np.int64)
    counts = np.full(size, n_vars, dtype=np.int64)
    decided = np.zeros(size, dtype=bool)
    for j in range(n_vars // 2):
        b1 = (ints >> (n_vars - (2 * j + 1))) & 1
        b2 = (ints >> (n_vars - (2 * j + 2))) & 1
        newly = (b1 != b2) & ~decided
        counts[newly] = 2 * (j + 1)
        decided |= newly
    return counts
