"""Numeric kernels for exhaustive sweeps and the classical side.

Every kernel has one numpy implementation, and shared steps are written
once: _wht is the one Walsh-Hadamard transform (for the sweep, pair_run and
linalg.hadamard_power), _pair_states the one paired-stage loop, _pair_diffs
the one pair mask and gram_residual the one Gram residual. Input words are
passed as integers; variable k (1-based) of an n-variable word w is the bit
(w >> (n - k)) & 1, so integer order equals lexicographic word order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .limits import MATRIX_TOL, SWEEP_BUDGET

# ---------------------------------------------------------------------------
# exhaustive exactness sweep: the polynomial method
#
# Checks any algorithm on every input integer in [lo, hi) against a table of
# expected output bits. After T queries every amplitude is a polynomial of
# degree <= T in the signs s_k = (-1)**x_k (Beals, Buhrman, Cleve, Mosca and
# de Wolf 2001). With a monomial stored as the word mask S of its variables,
# one unnormalized Walsh-Hadamard transform of the coefficients indexed by S
# gives the amplitude on every word, in word order (Fino and Algazi 1976).
#
#   * propagation, once per check: the start state runs through the
#     algorithm's own matrices as (monomial masks, block), one block row per
#     monomial and one column per basis state the start state reaches
#     through nonzero entries (sound because the model rejects non-finite
#     matrices, so 0 * x is always 0). A stage is one product with its
#     block; a query moves each column's coefficients from S to S ^ (the bit
#     it reads), so a re-queried variable cancels, and equal S are merged;
#   * labelled rows: when every stage block and the final matrix keep norms
#     on the reachable columns, only the output rows of the smaller label
#     set are kept, and the other probability is |start|^2 minus theirs;
#   * evaluation: _blocks walks [lo, hi) in aligned power-of-two blocks.
#     Fixing a block's top bits turns each monomial into a signed monomial
#     of its low bits, which are scattered with np.bincount and transformed.
#
# A live coefficient block holds at most _block_bound floats. Past that, each
# block is propagated on its own with its top variables substituted by their
# signs, and halved until it fits.
# ---------------------------------------------------------------------------


def parity(x):
    """popcount(x) & 1 for each int64 in x (numpy < 2 has no bitwise_count)."""
    for shift in (32, 16, 8, 4, 2, 1):
        x = x ^ (x >> shift)
    return x & 1


def gram_residual(m: np.ndarray) -> np.ndarray:
    """|m.T @ m - I| entrywise: how far m's columns are from orthonormal."""
    gram = m.T @ m
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    return np.abs(gram)


def _keeps_norms(m: np.ndarray) -> bool:
    """True iff m's columns are orthonormal within MATRIX_TOL, as a bound on
    how far |m s|^2 can be from |s|^2."""
    # The row-sum norm bounds the spectral norm of the symmetric gram error.
    return float(gram_residual(m).sum(axis=1).max(initial=0.0)) <= MATRIX_TOL


def _block_bound(t_queries: int, dim: int) -> int:
    """Most floats a live coefficient block may hold: the sweep budget, or
    what the algorithm's own T + 1 matrices hold when that is more."""
    return max(SWEEP_BUDGET, (t_queries + 1) * dim * dim)


class SweepArrays(NamedTuple):
    """What sweep_range needs: per stage, the transposed block from the
    columns reachable before it to those after it and the word bit each of
    the latter's query reads (0: fixed); the transposed final matrix on the
    kept output rows, and their labels; rest = (label, |start|^2) when only
    the other label's rows are kept; poly = the whole cube's (masks, kept
    rows x monomials coefficients), None when it would exceed bound floats.
    """

    start: np.ndarray
    stages: tuple
    final_t: np.ndarray
    row_labels: np.ndarray
    rest: tuple | None
    bound: int
    poly: tuple | None


def _reached(matrix, cols: np.ndarray, dim: int) -> np.ndarray:
    """Sorted rows with an entry != 0 in any of the sorted columns cols, for
    a matrix given as its (rows, cols, values) nonzeros."""
    r, c, v = matrix
    on = np.zeros(dim, dtype=bool)
    on[cols] = True
    hit = np.zeros(dim, dtype=bool)
    hit[r[on[c] & (v != 0)]] = True
    return np.flatnonzero(hit)


def _block(matrix, rows: np.ndarray, cols: np.ndarray, dim: int) -> np.ndarray:
    """The dense rows x cols block of a (rows, cols, values) nonzeros matrix,
    for sorted index arrays rows and cols."""
    r, c, v = matrix
    # Nothing to cut from a full matrix, such as a dense final one reached
    # everywhere: remapping its K**2 entries would only copy them.
    if rows.size < dim or cols.size < dim:
        at = np.full((2, dim), -1)
        at[0, rows], at[1, cols] = np.arange(rows.size), np.arange(cols.size)
        r, c = at[0, r], at[1, c]
        keep = (r >= 0) & (c >= 0)
        r, c, v = r[keep], c[keep], v[keep]
    block = np.zeros((rows.size, cols.size))
    block[r, c] = v
    return block


def sweep_arrays(n_vars, start, unitaries, var_maps, final, labels) -> SweepArrays:
    """Reachable blocks, kept rows and the propagated polynomial (see above)
    of matrices given as their (rows, cols, values) nonzeros."""
    dim = start.size
    support = np.flatnonzero(start)
    cols = support
    blocks, stages = [], []
    bit_of = np.array([0] + [1 << (n_vars - k) for k in range(1, n_vars + 1)])
    for unitary, var_map in zip(unitaries, var_maps):
        rows = _reached(unitary, cols, dim)
        blocks.append(_block(unitary, rows, cols, dim))
        stages.append((np.ascontiguousarray(blocks[-1].T), bit_of[var_map[rows]]))
        cols = rows
    final_cols, row_labels, rest = _block(final, np.arange(dim), cols, dim), labels, None
    if all(_keeps_norms(b) for b in blocks) and _keeps_norms(final_cols):
        # Keep the smaller label set, label 1 on a tie.
        label = int(2 * np.count_nonzero(labels) <= labels.size)
        final_cols, row_labels = final_cols[labels == label], labels[labels == label]
        rest = (1 - label, float(start @ start))
    arrays = SweepArrays(start[support], tuple(stages), np.ascontiguousarray(final_cols.T),
                         row_labels, rest, _block_bound(len(stages), start.size), None)
    return arrays._replace(poly=_propagate(arrays, 0, 1 << n_vars))


def _propagate(arrays: SweepArrays, base: int, size: int):
    """(masks, coefficients) of the kept output rows on the words
    [base, base + size), size a power of two dividing base: every variable
    above the low log2(size) bits is substituted by its sign in base. None
    when a live block would exceed arrays.bound floats, never for one word.
    """
    bound = arrays.bound if size > 1 else math.inf
    masks = np.zeros(1, dtype=np.int64)
    block = arrays.start[None, :]
    for ut, bits in (*arrays.stages, (arrays.final_t, None)):
        if masks.size * ut.shape[1] > bound:
            return None
        block = block @ ut
        if bits is None:
            return masks, np.ascontiguousarray(block.T)
        block *= 1.0 - 2.0 * ((bits & base) != 0)
        bits = bits & (size - 1)
        # Each query bit moves the live monomials of its columns by one XOR.
        # (np.unique(bits) would import numpy.ma, about 20 ms, on numpy 2.)
        order = np.argsort(bits, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(bits[order])) + 1) if bits.size else []
        live = [np.flatnonzero(block[:, cols].any(axis=1)) for cols in groups]
        moved = [masks[rows] ^ bits[cols[0]] for cols, rows in zip(groups, live)]
        masks, where = np.unique(np.concatenate([masks[:0], *moved]), return_inverse=True)
        if masks.size * bits.size > bound:
            return None
        merged = np.zeros((masks.size, bits.size))
        at = 0
        for cols, rows in zip(groups, live):
            merged[where[at:at + rows.size, None], cols] = block[np.ix_(rows, cols)]
            at += rows.size
        block = merged


def _block_words(rows: int) -> int:
    """Most words one evaluation block holds: the largest power of two whose
    output amplitudes, `rows` floats a word, fit in SWEEP_BUDGET; at least 1."""
    return 1 << max(0, (SWEEP_BUDGET // max(rows, 1)).bit_length() - 1)


def _blocks(arrays: SweepArrays, lo: int, hi: int):
    """(base, size, polynomial) for aligned blocks of at most _block_words
    words covering [lo, hi) in order: the whole cube's polynomial, or the
    block's own, halved at the same base until it fits."""
    most = _block_words(arrays.row_labels.size)
    while lo < hi:
        # lo & -lo: the largest power of two dividing lo.
        size = min(most, 1 << ((hi - lo).bit_length() - 1), lo & -lo or most)
        while (poly := arrays.poly or _propagate(arrays, lo, size)) is None:
            size //= 2
        yield lo, size, poly
        lo += size


# The sign matrices of the 1- to 64-point transforms, by size.
_SIGNS = {1 << k: 1.0 - 2.0 * parity(np.arange(1 << k)[:, None] & np.arange(1 << k))
          for k in range(7)}


def _wht(a: np.ndarray) -> None:
    """In-place unnormalized Walsh-Hadamard transform of each row of the
    C-contiguous 2-D array a, whose row length is a power of two; one
    product with a 64 x 64 sign matrix does six radix-2 passes."""
    rows, size = a.shape
    step = 1
    while step < size:
        width = min(64, size // step)
        signs = _SIGNS[width]
        if step == 1:
            view = a.reshape(rows * size // width, width)
            view[...] = view @ signs
        else:
            view = a.reshape(rows * size // (width * step), width, step)
            view[...] = signs @ view
        step *= width


def sweep_range(start, stages, final_t, row_labels, rest, bound, poly,
                n_vars, lo, hi, expected, tol):
    """(first input w in [lo, hi) not computed exactly as expected[w - lo],
    or -1; the least correct-output probability) for the fields of
    sweep_arrays. Words are walked in _blocks, one block live at a time."""
    arrays = SweepArrays(start, stages, final_t, row_labels, rest, bound, poly)
    first, p_min = -1, math.inf
    for base, width, (masks, coeffs) in _blocks(arrays, lo, hi):
        weights = coeffs * (1.0 - 2.0 * parity(masks & base))
        amps = np.array([np.bincount(masks & (width - 1), weights=w, minlength=width)
                         for w in weights]).reshape(-1, width)
        _wht(amps)
        probs = amps * amps
        p = [probs[row_labels == b].sum(axis=0) for b in (0, 1)]
        if rest is not None:
            label, norm2 = rest
            p[label] = np.maximum(norm2 - p[1 - label], 0.0)
        p0, p1 = p
        want = expected[base - lo:base - lo + width]
        ok = ((p1 > p0) == (want == 1)) & (np.maximum(p0, p1) >= 1.0 - tol)
        p_min = min(p_min, float(np.where(want == 1, p1, p0).min()))
        if first < 0 and not ok.all():
            first = base + int(np.argmin(ok))
    return first, p_min


# ---------------------------------------------------------------------------
# structure-aware references for builder output
#
# The built verifier never needs its dense matrices to be executed: stage i
# only mixes 2**(i-1) pairs of amplitudes with a 2x2 rotation and flips
# signs at those pair slots (_pair_states), and the final transformation is
# the Hadamard power, one _wht and one scale. String equality runs on
# pair_run; pair_sweep_range is an independent reference that tests and the
# benchmark compare the general sweep against. Equivalence with the dense
# pipeline is pinned by tests.
# ---------------------------------------------------------------------------


def _pair_states(n_vars: int, ints: np.ndarray) -> np.ndarray:
    """States of the built n-variable verifier before its final map, one row
    per input integer in ints. Stage i mixes each pair (top, top + K >> i),
    top a multiple of 2 * (K >> i), then signs top by x_{2i-1} and the other
    slot by x_{2i}."""
    t_queries = n_vars // 2
    dim = 1 << t_queries
    inv = 1.0 / math.sqrt(2.0)
    states = np.zeros((ints.size, dim), dtype=np.float64)
    states[:, 0] = 1.0
    # Column k - 1 holds the sign (-1)**x_k of each word.
    signs = 1.0 - 2.0 * ((ints[:, None] >> np.arange(n_vars - 1, -1, -1)) & 1)
    for i in range(1, t_queries + 1):
        pairs = states.reshape(ints.size, 1 << (i - 1), 2, dim >> i)
        a, b = pairs[:, :, 0, 0].copy(), pairs[:, :, 1, 0]
        pairs[:, :, 0, 0] = (a + b) * inv * signs[:, 2 * i - 2, None]
        pairs[:, :, 1, 0] = (a - b) * inv * signs[:, 2 * i - 1, None]
    return states


def pair_run(n_vars: int, word: int) -> np.ndarray:
    """Final state of the built n-variable verifier on one input word: its
    paired stages, then the Hadamard power as one _wht and one scale."""
    state = _pair_states(n_vars, np.array([word], dtype=np.int64))
    _wht(state)
    state *= 2.0 ** (-(n_vars // 2) / 2.0)
    return state[0]


def pair_sweep_range(n_vars: int, lo: int, hi: int, expected, tol) -> tuple[int, float]:
    """Exactness sweep of the built verifier over words [lo, hi).

    Only valid for builder output (paired-rotation stages, labels picking
    out basis state 0): the final transformation's first row is uniform, so
    p1 collapses to (sum(state) * 2**(-T/2))**2 and p0 to |state|^2 - p1.
    """
    states = _pair_states(n_vars, np.arange(lo, hi, dtype=np.int64))
    amp0 = states.sum(axis=1) * 2.0 ** (-(n_vars // 2) / 2.0)
    p1 = amp0 * amp0
    p0 = np.maximum((states * states).sum(axis=1) - p1, 0.0)
    ok = ((p1 > p0) == (expected == 1)) & (np.maximum(p0, p1) >= 1.0 - tol)
    first = -1 if bool(ok.all()) else lo + int(np.argmin(ok))
    return first, float(np.where(expected == 1, p1, p0).min(initial=math.inf))


# ---------------------------------------------------------------------------
# classical side: truth values, sensitivity, decision-tree query counts
# ---------------------------------------------------------------------------


def _pair_diffs(n_vars: int, ints: np.ndarray) -> np.ndarray:
    """Bit n - 2j - 2 of each result is set iff pair j's two variables
    (x_{2j+1}, x_{2j+2}, j from 0) differ on that input integer."""
    low_bits = sum(1 << (n_vars - 2 * j - 2) for j in range(n_vars // 2))
    return (ints ^ (ints >> 1)) & low_bits


def verify_values_range(n_vars: int, lo: int, hi: int) -> np.ndarray:
    """Pair-equality verifier outputs for every input integer in [lo, hi)."""
    return (_pair_diffs(n_vars, np.arange(lo, hi, dtype=np.int64)) == 0).astype(np.uint8)


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
    """Queries used by the left-to-right pair scan, for every input word: it
    stops at the first differing pair j, the highest set bit p = n - 2j - 2
    of _pair_diffs, after 2j + 2 = n - p queries, and asks all n otherwise."""
    diffs = _pair_diffs(n_vars, np.arange(1 << n_vars, dtype=np.int64))
    # frexp's exponent is p + 1 for a highest set bit p, and 0 for 0.
    return np.minimum(n_vars + 1 - np.frexp(diffs)[1], n_vars).astype(np.int64)
