"""Numeric kernels for exhaustive sweeps and the classical side.

Every kernel has one numpy implementation. Input words are passed as
integers; variable k (1-based) of an n-variable word w is the bit
(w >> (n - k)) & 1, so integer order equals lexicographic word order.
"""

from __future__ import annotations

import math

import numpy as np

from .limits import MATRIX_TOL

# ---------------------------------------------------------------------------
# exhaustive exactness sweep
#
# Runs the unitary/query pipeline of any algorithm on every input integer in
# [lo, hi) against a table of expected output bits, and returns
# (first_failure, min_correct_probability) where first_failure is -1 when
# every input is computed exactly and correctly. Four reductions keep it
# cheaper than one dense pipeline per word while computing the same values:
#
#   * shared prefixes: after stage s a word's state depends only on the
#     variables queried so far, so each stage unitary is applied once per
#     distinct prefix in the chunk and the result fanned out;
#   * reachable columns: only the basis states the start state can reach
#     through the nonzero entries of the stage unitaries are carried (sound
#     because the model rejects non-finite matrices, so 0 * x is always 0);
#   * labelled rows: when the final matrix is orthogonal on the reachable
#     columns and the last stage's block is an isometry, only the output
#     rows of the smaller label set are computed and the other probability
#     is |s|^2 minus theirs, with s the state before the last stage;
#   * last stage folded into the final map at set-up: the final amplitudes
#     are linear in the last query's signs, so with that stage's reachable
#     columns grouped by queried variable v (v = 0 for fixed slots),
#     transposed block ut_T and transposed final matrix final_t,
#         G_v = ut_T[:, cols_v] @ final_t[cols_v],
#         out[w] = sum_v (-1)**x_v(w) * (states[prefix(w)] @ G_v),
#     where states holds the prefixes before the last stage. Neither that
#     stage's product nor any word's post-query state is ever formed.
# ---------------------------------------------------------------------------


def _partial_label(labels: np.ndarray) -> int:
    """The label whose output rows a reduced final matrix keeps: the smaller
    label set, label 1 on a tie."""
    ones = int(np.count_nonzero(labels))
    return 1 if ones <= labels.size - ones else 0


def _keeps_norms(m: np.ndarray) -> bool:
    """True iff m's columns are orthonormal within MATRIX_TOL, as a bound on
    how far |m s|^2 can be from |s|^2."""
    gram = m.T @ m
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    # The row-sum norm bounds the spectral norm of the symmetric gram error.
    return float(np.abs(gram).sum(axis=1).max(initial=0.0)) <= MATRIX_TOL


def sweep_arrays(start, unitaries, var_maps, final, labels):
    """Kernel-ready arrays for sweep_range, built once per exactness check.

    Returns (start, stage_uts, var_maps, finals, labels): the start state on
    its support; for stages 1..T-1, the transposed unitary block from the
    previously reachable columns to the newly reachable ones, and the query
    var map on the latter; then, as the last var map, the distinct variables
    v the last stage queries (0 for fixed slots) and, stacked in that order,
    finals[i] = G_v, the last stage's block on the columns it signs by x_v
    composed with the final matrix on them. The final matrix keeps only the
    rows labelled _partial_label(labels) when both it and the last stage's
    block keep norms on the reachable columns; the labels are unchanged.
    """
    support = np.flatnonzero(start)
    cols = support
    blocks, maps = [], []
    for unitary, var_map in zip(unitaries, var_maps):
        rows = np.flatnonzero((unitary != 0)[:, cols].any(axis=1))
        blocks.append(unitary[np.ix_(rows, cols)])
        maps.append(var_map[rows])
        cols = rows
    final_cols = final[:, cols]
    if _keeps_norms(blocks[-1]) and _keeps_norms(final_cols):
        final_cols = final_cols[labels == _partial_label(labels)]
    last, last_map = blocks.pop(), maps.pop()
    slice_vars = np.unique(last_map)
    # No slices when a damaged last stage reaches no column.
    finals = np.zeros((slice_vars.size, last.shape[1], final_cols.shape[0]))
    for g, v in zip(finals, slice_vars):
        g[:] = (final_cols[:, last_map == v] @ last[last_map == v]).T
    return (start[support], tuple(np.ascontiguousarray(b.T) for b in blocks),
            tuple(maps) + (slice_vars,), finals, labels)


def sweep_range(start, stage_uts, var_maps, finals, labels, n_vars, lo, hi, expected, tol):
    """Sweep inputs [lo, hi) through arrays from sweep_arrays; see above."""
    words = np.arange(lo, hi, dtype=np.int64)
    # Shift of variable k; a fixed slot (k = 0) reads bit n, which is 0.
    shifts = n_vars - np.arange(n_vars + 1, dtype=np.int64)
    states = start[None, :]
    row_of = np.zeros(hi - lo, dtype=np.int64)
    mask = 0
    for stage, var_map in enumerate(var_maps):
        stage_mask = int(np.bitwise_or.reduce(1 << shifts[var_map[var_map > 0]]))
        mask |= stage_mask
        # reps: the first word of each distinct prefix, in prefix order.
        _, reps, row_of_next = np.unique(words & mask, return_index=True, return_inverse=True)
        # One row of +-1 per variable for each distinct setting of this
        # stage's variables; src: the state row each new prefix comes from.
        patterns, pattern_of = np.unique(words[reps] & stage_mask, return_inverse=True)
        signs = 1.0 - 2.0 * ((patterns[:, None] >> shifts) & 1)
        src, row_of = row_of[reps], row_of_next
        if stage < len(stage_uts):
            states = (states @ stage_uts[stage])[src] * signs[:, var_map][pattern_of]
    # The last stage, composed with the final map one variable at a time.
    out = np.zeros((src.size, finals.shape[2]))
    for v, g in zip(var_maps[-1], finals):
        out += (states @ g)[src] * signs[pattern_of, v, None]
    if finals.shape[2] == labels.size:
        probs = out * out
        lab1 = labels.astype(np.float64)
        p1 = probs @ lab1
        p0 = probs @ (1.0 - lab1)
    else:
        kept = np.einsum("ij,ij->i", out, out)
        norms = np.einsum("ij,ij->i", states, states)[src]
        rest = np.maximum(norms - kept, 0.0)
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
