"""Quantum query algorithm model: the input rules and unitarity tests of
its matrices and states, queries, the pipeline executor, measurement, and
exhaustive exactness checking.

An algorithm is a start state, T stages of (input-independent unitary,
input-dependent diagonal query), a final unitary, and a 0/1 output label
per basis state. Running on a word applies

    start -> U_1 -> Q_1 -> ... -> U_T -> Q_T -> final unitary -> measure

where query Q_i is its var_map: slot j's amplitude is kept when entry j is
0, and multiplied by (-1)**x_k when it is k >= 1. Measuring sums squared
amplitudes per label, labels that pass boolfunc.bit_vector, the one
Boolean-vector rule; an algorithm computes a function exactly when the
correct output has probability 1 (within EXACT_TOL) on every word.

Matrices take one of two forms in memory: a stage unitary is its Nonzeros,
and the final unitary a Kron of Nonzeros factors, one factor for a matrix
given whole. `run` is the one executor: it applies each stage straight from
its stored entries, and the final unitary one factor at a time, making
each factor dense on every call (all K x K entries for a final unitary
given whole); `run_batch` is `run` on each word, stacked.

All objects are immutable after construction and safe to share across
threads: records are NamedTuples of read-only arrays, and QueryAlgorithm's
shared base, words.ReadOnly, makes copies and pickles re-run the constructor.
`run` is a pure function, so identical inputs give bitwise identical traces.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import _kernels
from .boolfunc import BooleanFunction, bit_vector
from .limits import EXACT_TOL, MATRIX_TOL, NORM_TOL
from .words import ReadOnly, check_length, check_sweep, index_to_word, parse_word


class Nonzeros(NamedTuple):
    """A square matrix as its stored entries, in row-major order: every
    entry != 0, and every -0.0 so that it survives a document round trip.
    Entries not listed are 0.0, and no (row, col) pair is listed twice.
    QueryAlgorithm enforces this, dropping the +0.0 entries it is given."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @staticmethod
    def stored(values: np.ndarray) -> np.ndarray:
        """Which of the values are stored: those != 0, and -0.0."""
        return (values != 0) | np.signbit(values)

    @classmethod
    def of(cls, m: np.ndarray) -> "Nonzeros":
        """The stored entries of a dense float64 matrix."""
        rows, cols = np.nonzero(cls.stored(m))
        return cls(rows, cols, m[rows, cols])

    def dense(self, dim: int) -> np.ndarray:
        """The matrix as a new read-only dim x dim float64 array."""
        m = np.zeros((dim, dim))
        m[self.rows, self.cols] = self.values
        m.setflags(write=False)
        return m


class Kron(NamedTuple):
    """A square matrix as the Kronecker product of its factors, the first
    factor the most significant: each factor is Nonzeros of side dims[i],
    and the side of the product is the product of dims. The matrix is
    never stored whole; a row of A (x) B is the Kronecker product of a row
    of A and a row of B."""

    factors: tuple
    dims: tuple

    def dense(self) -> np.ndarray:
        """The product as a new read-only float64 array."""
        m = reduce(np.kron, (f.dense(d) for f, d in zip(self.factors, self.dims)))
        m.setflags(write=False)
        return m

    def apply(self, states: np.ndarray) -> np.ndarray:
        """states @ self.dense().T for states one per row, one factor at a
        time: each factor multiplies its own axis of the reshaped states."""
        shape, stride = states.shape, states.shape[1]
        for f, d in zip(self.factors, self.dims):
            stride //= d
            x = states.reshape(-1, d, stride).swapaxes(1, 2).reshape(-1, d)
            states = (x @ f.dense(d).T).reshape(-1, stride, d).swapaxes(1, 2).reshape(shape)
        return states


class Stage(NamedTuple):
    """One stage: the stored entries of its unitary, and its var_map."""

    nonzeros: Nonzeros
    query: np.ndarray

    @property
    def unitary(self) -> np.ndarray:
        """The dense unitary, built on each access."""
        return self.nonzeros.dense(len(self.query))


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def as_matrix(m: np.ndarray, what: str) -> np.ndarray:
    """Coerce `what` to a square float64 matrix, raising ValueError otherwise."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {a.shape}")
    return a


def as_state(v: np.ndarray) -> np.ndarray:
    """Coerce a start state to a float64 vector of power-of-two length
    whose squared norm is 1 within NORM_TOL."""
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"start state must be a vector, got shape {a.shape}")
    if not is_power_of_two(a.shape[0]):
        raise ValueError(f"start state length {a.shape[0]} is not a power of two")
    with np.errstate(over="ignore"):
        norm_sq = float(a @ a)
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"start state is not normalized: |v|^2 = {norm_sq!r}")
    return a


def _var_map(var_map, what: str) -> np.ndarray:
    """A query's var_map, named `what`, as a new read-only int64 array. Its
    entries must be integers in [0, 2**63): bools, floats, objects and
    larger unsigned entries are refused, never cast."""
    vm = np.asarray(var_map)
    if vm.ndim != 1 or vm.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-D sequence")
    if vm.dtype.kind not in "iu" or not isinstance(var_map, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in var_map):
        raise ValueError("variable indices must be integers, not bools, floats or other values")
    if vm.dtype.kind == "u" and (top := int(vm.max())) > np.iinfo(np.int64).max:
        # The cast below would wrap it negative.
        raise ValueError(f"variable index {top} is too large: indices must fit in int64")
    vm = vm.astype(np.int64)
    if vm.min() < 0:
        raise ValueError("variable indices must be >= 1 (0 marks a fixed slot)")
    vm.setflags(write=False)
    return vm


def _locked(a: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has non-finite entries")
    a.setflags(write=False)
    return a


def _stored(m, dim: int, what: str) -> Nonzeros:
    """A dense matrix, or the Nonzeros of one, as read-only Nonzeros."""
    if isinstance(m, Nonzeros):
        r, c = np.asarray(m.rows, dtype=np.int64), np.asarray(m.cols, dtype=np.int64)
        m = Nonzeros(r, c, np.asarray(m.values, dtype=np.float64))
        # Strictly increasing row-major keys: sorted, and no pair twice.
        if not (r.ndim == 1 and r.shape == c.shape == m.values.shape
                and ((r >= 0) & (r < dim) & (c >= 0) & (c < dim)).all()
                and (np.diff(r * dim + c) > 0).all()):
            raise ValueError(f"{what} must list distinct entries below {dim} in row-major order")
        if not (keep := Nonzeros.stored(m.values)).all():
            m = Nonzeros(*(a[keep] for a in m))
    else:
        a = as_matrix(m, what)
        if a.shape[0] != dim:
            raise ValueError(f"{what} has dimension {a.shape[0]}, expected {dim}")
        m = Nonzeros.of(a)
    _locked(m.values, what)
    m.rows.setflags(write=False)
    m.cols.setflags(write=False)
    return m


def _kron(m, dim: int, what: str) -> Kron:
    """A Kron, or a dense matrix or Nonzeros as a one-factor Kron, with each
    factor stored as read-only Nonzeros."""
    if not isinstance(m, Kron):
        return Kron((_stored(m, dim, what),), (dim,))
    dims = tuple(int(d) for d in m.dims)
    if not (len(m.factors) == len(dims) >= 1 and min(dims) >= 2 and math.prod(dims) == dim):
        raise ValueError(f"{what} needs factors of side at least 2 whose product is {dim}, "
                         f"got {len(m.factors)} factors of sides {dims}")
    return Kron(tuple(_stored(f, d, f"{what} factor {i}")
                      for i, (f, d) in enumerate(zip(m.factors, dims), start=1)), dims)


class QueryAlgorithm(ReadOnly):
    """A complete query algorithm over n_vars Boolean variables.

    Every stage unitary is held as its Nonzeros only, O(K) numbers for
    each of the builder's stages, and the final unitary as a Kron of
    Nonzeros factors (`final`): one factor for any matrix given whole, and
    T // 2 shared 4 x 4 Hadamard factors, plus one 2 x 2 when T is odd, for
    the builder's. `stage.unitary` and `final_unitary` build a read-only
    dense copy on each access. The constructor takes dense matrices,
    Nonzeros and Stage objects alike, and a Kron for the final unitary.
    Nonzeros arrays passed in, int64 indices and float64 values with no
    zero entry, are shared, not copied, and set read-only in place.

    Construction validates structure: a unit-norm power-of-two start state,
    finite entries and matching dimensions everywhere, variable indices
    within [1, n_vars], and binary labels. Unitarity of the matrices is a
    behavioral property checked separately (`unitary_within`); keeping it
    out of the constructor lets damaged algorithms be loaded and checked.
    Damage that changes some run is convicted by `check_exact` with a
    concrete counterexample. Damage confined to matrix columns the start
    state never reaches changes no run, so only `unitary_within` reveals it.
    """

    __slots__ = ("n_vars", "start", "stages", "final", "labels")

    def __init__(self, n_vars: int, start, stages, final_unitary, labels) -> None:
        n_vars = check_length(n_vars, "n_vars")
        start_arr = _locked(np.array(as_state(start), dtype=np.float64), "start state")
        dim = start_arr.shape[0]

        built: list[Stage] = []
        for idx, (unitary, query) in enumerate(stages, start=1):
            query = _var_map(query, what := f"stage {idx} query diagonal")
            if query.size != dim:
                raise ValueError(f"{what} has {query.size} slots, expected {dim}")
            if (top := int(query.max())) > n_vars:
                raise ValueError(f"stage {idx} queries variable {top} but n_vars = {n_vars}")
            built.append(Stage(_stored(unitary, dim, f"stage {idx} unitary"), query))
        if not built:
            raise ValueError("stages must hold at least one stage")

        labels_arr = bit_vector(labels, "labels must be 0 or 1")
        if labels_arr.shape != (dim,):
            raise ValueError(f"labels must have shape ({dim},), got {labels_arr.shape}")

        super().__init__(n_vars, start_arr, tuple(built),
                         _kron(final_unitary, dim, "final unitary"), labels_arr)

    @property
    def dim(self) -> int:
        return self.start.shape[0]

    @property
    def t_queries(self) -> int:
        return len(self.stages)

    @property
    def final_unitary(self) -> np.ndarray:
        """The dense final unitary, the product of its factors, built on
        each access."""
        return self.final.dense()

    def unitary_within(self) -> bool:
        """True iff every stage's _kernels.gram_residual, taken from its
        stored entries on all columns, is at most MATRIX_TOL, and so is the
        final unitary's _kernels.kron_bound from its factors'. That bound is
        sufficient, not necessary: 2H (x) H/2 is the unitary H (x) H, yet
        its factors are far from unitary. The sweep takes the same residual
        on the columns the start state reaches."""
        every = np.ones(self.dim, dtype=bool)
        return all(_kernels.gram_residual(st.nonzeros, every) <= MATRIX_TOL
                   for st in self.stages) \
            and _kernels.kron_bound(self.final, every) <= MATRIX_TOL


def is_unitary(matrix: np.ndarray, tol: float = MATRIX_TOL) -> bool:
    """True iff M's rows are orthonormal within tol: the largest row sum of
    |M @ M.T - I|, gram_residual on the columns of M.T, is at most tol."""
    m = as_matrix(matrix, "the matrix")
    at = np.arange(m.shape[0])
    # Every entry of M.T as views, zeros too: row i, column j, value m[j, i].
    rows, cols = np.broadcast_arrays(at[:, None], at)
    return _kernels.gram_residual((rows, cols, m.T), np.ones(at.size, dtype=bool)) <= tol


class RunTrace(NamedTuple):
    """States after each transformation: start, then alternating unitary /
    query states per stage, then the state after the final unitary.

    Length is always 2 * t_queries + 2.
    """

    states: tuple

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def after_stage(self, i: int) -> np.ndarray:
        """State after stage i's query (1-based stage number)."""
        return self.states[2 * i]


class ComputeResult(NamedTuple):
    output: int
    probability: float
    exact: bool
    p0: float
    p1: float


class ExactnessReport(NamedTuple):
    """Result of an exhaustive exactness sweep.

    `counterexample` is the lexicographically first word on which the
    algorithm output differs from the reference function or is not exact;
    None when the sweep passes. `min_probability` is the smallest
    correct-output probability observed over all words.
    """

    exact: bool
    counterexample: str | None
    min_probability: float
    inputs_checked: int


def _signs(bits: np.ndarray) -> np.ndarray:
    """(-1)**x_k at index k >= 1 for these bits, and +1 at index 0."""
    return 1.0 - 2.0 * np.concatenate(([0], bits))


def realize_query(var_map, word: str) -> np.ndarray:
    """Concrete diagonal query matrix of a var_map for one input word.

    The word only needs to cover the variables the var_map mentions, so a
    query can be realized standalone without a full algorithm around it.
    """
    var_map = _var_map(var_map, "query diagonal")
    bits = parse_word(word)
    if (top := int(var_map.max())) > bits.shape[0]:
        raise ValueError(f"query references variable {top} but the word has {bits.shape[0]} bits")
    return np.diag(_signs(bits)[var_map])


def run(alg: QueryAlgorithm, word: str) -> RunTrace:
    """Execute the pipeline on one word, recording the state after every
    transformation (exactly t_queries query applications). A stage is
    applied from its stored entries: each row sums its values times the
    state at their columns, from +0.0, as a dense product would."""
    signs = _signs(parse_word(word, alg.n_vars))
    states = [alg.start]
    for (rows, cols, values), query in alg.stages:
        product = np.bincount(rows, weights=values * states[-1][cols], minlength=alg.dim)
        states.append(product.astype(np.float64, copy=False))  # int zeros when rows is empty
        states.append(states[-1] * signs[query])
    states.append(alg.final.apply(states[-1][None])[0])
    for s in states:
        s.setflags(write=False)
    return RunTrace(states=tuple(states))


def measure(final: np.ndarray, labels) -> tuple[float, float]:
    """Probabilities (p0, p1) of the two outputs under the label map.

    p_j sums the squared amplitudes of all basis states labeled j; the
    result only depends on |amplitude|, never on its sign.
    """
    v = np.asarray(final, dtype=np.float64)
    lab = bit_vector(labels, "labels must be 0 or 1")
    if v.shape != lab.shape:
        raise ValueError(f"state shape {v.shape} does not match labels shape {lab.shape}")
    p = v * v
    p1 = float(p[lab == 1].sum())
    p0 = float(p[lab == 0].sum())
    return p0, p1


def decide(final: np.ndarray, labels) -> ComputeResult:
    """Measure a final state: output is the more probable label, exact needs
    probability >= 1 - EXACT_TOL. A dead tie reports output 0 with
    probability 0.5 and exact False rather than raising."""
    p0, p1 = measure(final, labels)
    probability = max(p0, p1)
    return ComputeResult(output=1 if p1 > p0 else 0, probability=probability,
                         exact=probability >= 1.0 - EXACT_TOL, p0=p0, p1=p1)


def compute(alg: QueryAlgorithm, word: str) -> ComputeResult:
    """Run the algorithm on one word and decide its output (see decide)."""
    return decide(run(alg, word).final, alg.labels)


def run_batch(alg: QueryAlgorithm, words) -> list[np.ndarray]:
    """`run` on each word, given as an integer in [0, 2**n_vars), stacked:
    the same 2T + 2 snapshots, each a (len(words), dim) array whose rows are
    bitwise `run`'s. Raises ValueError on a word outside that range or not
    an integer (see words.index_to_word)."""
    snapshots = np.empty((2 * alg.t_queries + 2, len(words), alg.dim))
    for i, w in enumerate(words):
        snapshots[:, i] = run(alg, index_to_word(w, alg.n_vars)).states
    return list(snapshots)


# ---------------------------------------------------------------------------
# exhaustive exactness checking
# ---------------------------------------------------------------------------


def _sweep_arrays(alg: QueryAlgorithm) -> _kernels.SweepArrays:
    """Kernel-ready arrays for _kernels.sweep_range (see sweep_arrays there)."""
    return _kernels.sweep_arrays(alg.n_vars, alg.start, [st.nonzeros for st in alg.stages],
                                 [st.query for st in alg.stages],
                                 alg.final, alg.labels)


def _chunk_grid(n_vars: int, width: int) -> list[tuple[int, int]]:
    """Aligned chunks of all n_vars-bit words, one sweep_range block each
    for `width` kept output rows: the benchmark replays check_exact on them."""
    total = 1 << n_vars
    rows = min(total, _kernels._block_words(width))
    return [(lo, lo + rows) for lo in range(0, total, rows)]


def check_exact(alg: QueryAlgorithm, f: BooleanFunction, *,
                workers: int | None = None) -> ExactnessReport:
    """Exhaustively check that the algorithm computes f exactly.

    Every word is swept through the algorithm's own matrices (no early
    exit) by one _kernels.sweep_range call, in blocks of bounded size: the
    counterexample is the first failing word. `workers` is accepted and has
    no effect; the sweep runs in the calling process, so concurrent callers
    each get their own report. Raises ValueError when a swept probability
    is not finite: finite matrix entries so large that they overflow.
    """
    if alg.n_vars != f.arity:
        raise ValueError(f"algorithm has {alg.n_vars} variables, function has {f.arity}")
    check_sweep(f.arity, "exhaustive check")

    with np.errstate(over="ignore", invalid="ignore"):
        first, min_prob = _kernels.sweep_range(*_sweep_arrays(alg), alg.n_vars, 0,
                                               1 << alg.n_vars, f.values(), EXACT_TOL)
    counterexample = index_to_word(first, alg.n_vars) if first >= 0 else None
    return ExactnessReport(exact=first < 0, counterexample=counterexample,
                           min_probability=min_prob, inputs_checked=1 << alg.n_vars)
