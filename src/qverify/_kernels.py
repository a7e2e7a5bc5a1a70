"""Numeric kernels for exhaustive sweeps.

Every kernel has one numpy implementation, and shared steps are written
once: _wht is the one Walsh-Hadamard transform (for the sweep, pair_run and
builder.hadamard_power), _pair_states the one paired-stage loop,
gram_residual the one Gram residual (the sweep's norm tests,
model.unitary_within and model.is_unitary), taken one connected column
block at a time with blocks of one shape stacked, kron_bound the one bound
of a Kronecker product's residual by its factors', _propagate the one
substitution of a block's top variables by their signs, and _fan_out the
one walk over grouped entries (a propagation step, and a Kronecker row
cut). The classical side (truth tables, sensitivity, query counts) lives
in boolfunc. Input words are passed as integers; variable k (1-based) of an
n-variable word w is the bit (w >> (n - k)) & 1, so integer order equals
lexicographic word order.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import NamedTuple

import numpy as np

# Re-exported because the benchmark (perfbench/) calls both as _kernels.*.
from .boolfunc import table_sensitivity, verify_values_range  # noqa: F401
from .limits import MATRIX_TOL, SWEEP_BUDGET, exact

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
#   * propagation, once per block of words: the polynomial is a list of
#     (mask S, basis state, coefficient) terms, first those of the start
#     state. Variables above the block's low bits are substituted by their
#     signs in the block's base as the terms move, so every mask lies below
#     the block width. Each stage is its entries != 0 in the columns the
#     start state reaches through such entries, grouped by column (sound
#     because the model rejects non-finite matrices, so 0 * x is always 0).
#     A step moves each term along its column's entries and XORs S with the
#     bit each new row queries, so a re-queried variable cancels; equal
#     (S, row) terms are merged and exact zeros dropped. The final matrix,
#     cut to the kept rows, is one more step that queries nothing. It is
#     given as Kronecker factors, and each kept row is cut from the factors'
#     rows (_kron_rows) in O(K), never from the whole matrix;
#   * kept rows: when every stage and the final matrix keep norms on the
#     reachable columns (gram_residual, and kron_bound of the final matrix's
#     factors), only the smaller label set's output rows are kept, and the
#     other probability is |start|^2 minus theirs; else all, label 0's first;
#   * evaluation: _blocks walks [lo, hi) in aligned power-of-two blocks,
#     each propagated on its own; its monomials of the low bits are
#     scattered into one amplitude row per kept output row, transformed,
#     squared and judged by _judge, the one judging step.
#
# A propagation holds at most SWEEP_BUDGET floats, _TERM_FLOATS a term. Past
# that, a block is halved until it fits. Builder output up to n = 21 is one
# block, the whole cube.
# ---------------------------------------------------------------------------


def _ranks(groups: np.ndarray) -> np.ndarray:
    """Each item's place among the items of its group, in item order."""
    order = np.argsort(groups, kind="stable")
    ranks = np.empty_like(order)
    ranks[order] = np.arange(order.size) - np.searchsorted(groups[order], groups[order])
    return ranks


def _column_blocks(r: np.ndarray, c: np.ndarray, starts: np.ndarray, size: int) -> np.ndarray:
    """Per column, the least column of its connected block of B^T B, for
    entries (r, c) sorted by row, each row's first at starts: two columns
    share a block when they share a row, and a column without entries is a
    block of its own. Row minima are one reduceat over the rows; a pass
    that finds one minimum for every row has found one block."""
    block = np.arange(size)
    low = np.minimum.reduceat(c, starts)
    while low.min() != low.max():
        # Each column takes the least minimum of its rows, then jumps to
        # that column's block: labels stay columns of the same block.
        row_low = np.empty(size, dtype=np.int64)
        row_low[r[starts]] = low
        moved = block.copy()
        np.minimum.at(moved, c, row_low[r])
        moved = moved[moved]
        if np.array_equal(moved, block):
            return block
        block = moved
        low = np.minimum.reduceat(block[c], starts)
    block[c] = low[0]
    return block


def gram_residual(entries, cols) -> float:
    """The largest row sum of |B^T B - I|, where B is the columns marked
    `cols` of a square matrix given as its row-major (rows, cols, values)
    entries, cut to the rows those columns reach. It bounds the spectral
    norm of the symmetric Gram error, so how far |B s|^2 can be from |s|^2;
    inf or nan, without a warning, where huge entries overflow.

    B^T B is zero between columns that share no row, so it is taken one
    connected block at a time (_column_blocks): the blocks of one shape are
    scattered into one stack, multiplied by one np.matmul. A builder stage
    is blocks of 1 x 1 and 2 x 2, a dense matrix one block, and a marked
    column without entries a block with no rows, whose row sum is 1."""
    r, c, v = entries
    kept = cols[c] & (v != 0)
    r, c, v = r[kept], c[kept], v[kept]
    size = cols.size
    ptr = np.searchsorted(r, np.arange(size + 1))
    starts = ptr[:-1][ptr[:-1] < ptr[1:]]
    block = _column_blocks(r, c, starts, size) if r.size else np.arange(size)
    marked = np.flatnonzero(cols)
    row_block = block[c[starts]]
    heights = np.bincount(row_block, minlength=size)
    widths = np.bincount(block[marked], minlength=size)
    # The blocks of one shape fill consecutive slots of one buffer, each
    # block row after row, its rows and columns in the matrix's order.
    ids = np.flatnonzero(widths)
    keys, group = np.unique(heights[ids] * (size + 1) + widths[ids], return_inverse=True)
    h, w = np.divmod(keys, size + 1)
    counts = np.bincount(group, minlength=keys.size)
    sizes = counts * h * w
    ends = np.cumsum(sizes)
    first = np.zeros(size, dtype=np.int64)
    first[ids] = (ends - sizes)[group] + _ranks(group) * (h * w)[group]
    row_at, col_at = np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64)
    row_at[r[starts]] = first[row_block] + _ranks(row_block) * widths[row_block]
    col_at[marked] = _ranks(block[marked])
    slots = np.zeros(sizes.sum())
    slots[row_at[r] + col_at[c]] = v
    worst = []
    with np.errstate(over="ignore", invalid="ignore"):
        for part, shape in zip(np.split(slots, ends[:-1]), zip(counts, h, w)):
            stack = part.reshape(shape)
            gram = stack.transpose(0, 2, 1) @ stack
            diagonal = np.arange(shape[2])
            gram[:, diagonal, diagonal] -= 1.0
            worst.append(np.abs(gram, out=gram).sum(axis=2).max())
    return float(np.max(worst, initial=0.0))


def kron_bound(final, cols) -> float:
    """A bound on gram_residual of the Kronecker product final = (factors,
    dims) on the columns marked `cols`, from each factor's gram_residual on
    the factor columns that `cols` project onto. The product's residual on
    cols is a principal submatrix of its residual on their product, and
    (I + E) (x) (I + F) - I = E (x) I + I (x) F + E (x) F, so each factor
    adds e to a bound b as b + e + b * e. It is sufficient, not necessary:
    factors far from orthogonal can multiply to an orthogonal product."""
    factors, dims = final
    at, stride, bound = np.flatnonzero(cols), math.prod(dims), 0.0
    for f, d in zip(factors, dims):
        stride //= d
        e = gram_residual(f, np.bincount(at // stride % d, minlength=d) > 0)
        bound = bound + e + bound * e
    return bound


def _fan_out(first: np.ndarray, counts: np.ndarray):
    """(item, at) for every entry of every item in turn: item i owns the
    counts[i] consecutive entries from first[i]."""
    item = np.repeat(np.arange(counts.size), counts)
    return item, (first + counts - np.cumsum(counts))[item] + np.arange(item.size)


def _kron_rows(factors, dims, rows: np.ndarray):
    """(i, cols, values) of the entries in rows `rows` of the Kronecker
    product of the factors (row-major Nonzeros, the first the most
    significant), i for an entry of row rows[i], in row-major order. A row
    costs only its own entries: it is the product of one row of each
    factor, multiplied in factor order as np.kron does."""
    at, cols, values = np.arange(rows.size), np.zeros(rows.size, dtype=np.int64), np.ones(rows.size)
    stride = math.prod(dims)
    for (r, c, v), d in zip(factors, dims):
        stride //= d
        ptr = np.searchsorted(r, np.arange(d + 1))
        fr = rows[at] // stride % d
        item, k = _fan_out(ptr[fr], ptr[fr + 1] - ptr[fr])
        at, cols, values = at[item], cols[item] * d + c[k], values[item] * v[k]
    return at, cols, values


def _reached(on: np.ndarray, r, c, v):
    """The entries != 0 in the columns marked `on`, stably sorted by column."""
    kept = np.flatnonzero(on[c] & (v != 0))
    kept = kept[np.argsort(c[kept], kind="stable")]
    return r[kept], c[kept], v[kept]


_TERM_FLOATS = 16  # floats a moved term takes: mask, row, coefficient, key, copies


class SweepArrays(NamedTuple):
    """What sweep_range needs: the start state; per stage, its entries
    (ptr, rows, values, bits) on the columns reached before it, column c's
    at [ptr[c], ptr[c + 1]), with the word bit each row queries (0: none);
    final_t, the same for the final matrix on the kept output rows, which
    row_labels labels, label 0's first; and rest = (label, |start|^2) when
    only the other label's rows are kept. Each block of words propagates
    its own polynomial from them (_blocks)."""

    start: np.ndarray
    stages: tuple
    final_t: tuple
    row_labels: np.ndarray
    rest: tuple | None


def sweep_arrays(n_vars, start, unitaries, var_maps, final, labels) -> SweepArrays:
    """Reachable entries and kept rows (see above) of stages given as their
    (rows, cols, values) nonzeros and a final matrix given as (factors,
    dims), its Kronecker factors."""
    dim = start.size
    bit_of = np.array([0] + [1 << (n_vars - k) for k in range(1, n_vars + 1)])
    on, stages, norms = start != 0, [], True
    for entries, var_map in zip(unitaries, var_maps):
        norms = norms and gram_residual(entries, on) <= MATRIX_TOL
        r, c, v = _reached(on, *entries)
        stages.append((np.searchsorted(c, np.arange(dim + 1)), r, v, bit_of[var_map[r]]))
        on = np.bincount(r, minlength=dim) > 0
    rows, rest = np.argsort(labels, kind="stable"), None
    if norms and kron_bound(final, on) <= MATRIX_TOL:
        # Keep the smaller label set, label 1 on a tie.
        label = int(2 * np.count_nonzero(labels) <= labels.size)
        rows, rest = np.flatnonzero(labels == label), (1 - label, float(start @ start))
    i, c, v = _reached(on, *_kron_rows(*final, rows))
    final_t = (np.searchsorted(c, np.arange(dim + 1)), i, v, np.zeros_like(i))
    return SweepArrays(start, tuple(stages), final_t, labels[rows], rest)


def _propagate(arrays: SweepArrays, base: int, size: int):
    """(masks, kept rows, coefficients) terms of the kept output rows on the
    words [base, base + size), size a power of two dividing base: variables
    above the low log2(size) bits are substituted by their signs in base.
    None when a step would hold more than SWEEP_BUDGET floats, never for
    one word."""
    bound = SWEEP_BUDGET if size > 1 else math.inf
    dim = arrays.start.size
    cols = np.flatnonzero(arrays.start)
    masks, coeffs = np.zeros(cols.size, dtype=np.int64), arrays.start[cols]
    for ptr, rows, values, bits in (*arrays.stages, arrays.final_t):
        counts = ptr[cols + 1] - ptr[cols]
        # Terms move in slices that fit in the bound, each merged with the
        # keys so far, so that sums add in the order of one merge.
        per = max(1, SWEEP_BUDGET // _TERM_FLOATS // max(1, int(counts.max(initial=0))))
        keys, sums = np.zeros(0, dtype=np.int64), np.zeros(0)
        for lo in range(0, cols.size, per):
            m, c, k, n = (a[lo:lo + per] for a in (masks, cols, coeffs, counts))
            # Term t moves along the n[t] entries of its column, from ptr[c[t]].
            term, at = _fan_out(ptr[c], n)
            b = bits[at]
            m = m[term] ^ (b & (size - 1))
            k = k[term] * values[at] * (1.0 - 2.0 * ((b & base) != 0))
            keys, where = np.unique(np.concatenate((keys, m * dim + rows[at])), return_inverse=True)
            sums = np.bincount(where, weights=np.concatenate((sums, k)))
            if _TERM_FLOATS * keys.size > bound:
                return None
        live = sums != 0
        (masks, cols), coeffs = np.divmod(keys[live], dim), sums[live]
    return masks, cols, coeffs


def _block_words(rows: int) -> int:
    """Most words one evaluation block holds: the largest power of two whose
    output amplitudes, `rows` floats a word, fit in SWEEP_BUDGET; at least 1."""
    return 1 << max(0, (SWEEP_BUDGET // max(rows, 1)).bit_length() - 1)


def _blocks(arrays: SweepArrays, lo: int, hi: int):
    """(base, size, polynomial) for aligned blocks of at most _block_words
    words covering [lo, hi) in order, each with its own polynomial, halved
    at the same base until the propagation fits."""
    most = _block_words(arrays.row_labels.size)
    while lo < hi:
        # lo & -lo: the largest power of two dividing lo.
        size = min(most, 1 << ((hi - lo).bit_length() - 1), lo & -lo or most)
        while (poly := _propagate(arrays, lo, size)) is None:
            size //= 2
        yield lo, size, poly
        lo += size


# The sign matrices of the 1- to 64-point transforms, by size: Kronecker
# powers of [[1, 1], [1, -1]], whose entry (i, j) is (-1)**popcount(i & j).
_SIGNS = {1 << k: reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * k, np.ones((1, 1)))
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


def _judge(probs, zeros, rest, want, tol):
    """(offset of the first word where limits.exact fails for want, or -1;
    the least probability of the wanted label) from the kept rows' squared
    amplitudes, a column a word, label 0's `zeros` rows first. With rest =
    (label, norm2), label's mass is norm2 minus the kept rows', at least 0:
    when every reached residual is at most MATRIX_TOL, within norm2 * ((1 +
    MATRIX_TOL)**(T + 1) - 1) of the true mass plus rounding, about 1.3e-11
    at T = 12 (derived from the residuals' definitions, not measured)."""
    p0, p1 = probs[:zeros].sum(axis=0), probs[zeros:].sum(axis=0)
    if rest is not None:  # written into the empty slice's sum
        other, kept = (p0, p1) if rest[0] == 0 else (p1, p0)
        np.maximum(np.subtract(rest[1], kept, out=other), 0.0, out=other)
    if not math.isfinite(np.maximum(p0, p1).max(initial=0.0)):  # max keeps a nan
        raise ValueError("swept output probabilities overflow: matrix entries too large")
    p_want = np.where(want == 1, p1, p0)
    ok = exact(p_want, np.where(want == 1, p0, p1), tol)
    first = -1 if ok.all() else int(np.argmin(ok))
    return first, float(p_want.min(initial=math.inf))


def sweep_range(start, stages, final_t, row_labels, rest, n_vars, lo, hi, expected, tol):
    """(first input w in [lo, hi) not computed exactly as expected[w - lo],
    or -1; the least correct-output probability) for the fields of
    sweep_arrays. Words are walked in _blocks, one block live at a time, each
    judged once by _judge; n_vars is unused, kept for perfbench's replays."""
    arrays = SweepArrays(start, stages, final_t, row_labels, rest)
    zeros, first, p_min = row_labels.size - int(np.count_nonzero(row_labels)), -1, math.inf
    # One amplitude buffer for all blocks, since a new one is paged in again
    # inside _wht; _propagate merged equal (mask, row) terms, so no two add.
    buf = np.empty(row_labels.size * _block_words(row_labels.size))
    for base, width, (masks, rows, coeffs) in _blocks(arrays, lo, hi):
        amps = buf[:row_labels.size * width].reshape(-1, width)
        amps.fill(0.0)
        amps[rows, masks] = coeffs
        _wht(amps)
        at, least = _judge(np.square(amps, amps), zeros, rest, expected[base - lo:][:width], tol)
        p_min = min(p_min, least)
        if first < 0 <= at:
            first = base + at
    return first, p_min


# ---------------------------------------------------------------------------
# structure-aware references for builder output
#
# The built verifier, derived by hand: stage i only mixes 2**(i-1) pairs of
# amplitudes with a 2x2 rotation and flips signs at those pair slots
# (_pair_states), and the final transformation is the Hadamard power, one
# _wht and one scale. Nothing in the package runs on them; pair_run and
# pair_sweep_range are independent references that tests and the benchmark
# compare model.run and the general sweep against. The same stage rule, and
# pair_sweep_range's read of row 0, also run in plain Python on one word in
# strings._run_verifier, so that `equal` needs no numpy.
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
    p1 collapses to (sum(state) * 2**(-T/2))**2, and _judge takes p0 as |state|^2 - p1.
    """
    states = _pair_states(n_vars, np.arange(lo, hi, dtype=np.int64))
    p1 = np.square(states.sum(axis=1) * 2.0 ** (-(n_vars // 2) / 2.0))
    first, least = _judge(p1[None], 0, (0, np.square(states).sum(axis=1)), expected, tol)
    return first if first < 0 else lo + first, least
