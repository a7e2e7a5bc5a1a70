"""Quantum query algorithm model: query specs, the pipeline executor,
measurement, and exhaustive exactness checking.

An algorithm is a start state, T stages of (input-independent unitary,
input-dependent diagonal query), a final unitary, and a 0/1 output label
per basis state. Running on a word applies

    start -> U_1 -> Q_1 -> ... -> U_T -> Q_T -> final unitary -> measure

where query Q_i multiplies each basis amplitude by +1 or by (-1)**x_k as
its spec dictates. Measuring sums squared amplitudes per label; an
algorithm computes a function exactly when the correct output has
probability 1 (within EXACT_TOL) on every word.

All objects are immutable after construction and safe to share across
threads; `run` is a pure function, so identical inputs give bitwise
identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .boolfunc import BooleanFunction
from .limits import EXACT_TOL, MATRIX_TOL, MAX_SWEEP_VARS
from .linalg import as_matrix, as_state, is_unitary
from .words import index_to_word, parse_word


@dataclass(frozen=True)
class QueryEntry:
    """One diagonal slot of a query: fixed +1, or the sign (-1)**x_k.

    var_index is the 1-based Boolean variable index, or None for a fixed
    slot.
    """

    var_index: int | None = None

    def __post_init__(self) -> None:
        if self.var_index is not None and self.var_index < 1:
            raise ValueError(f"variable indices are 1-based, got {self.var_index}")

    @property
    def is_fixed(self) -> bool:
        return self.var_index is None


FIXED = QueryEntry()


class QuerySpec:
    """Input-dependent diagonal of one query transformation.

    Stored as `var_map`: 0 keeps the amplitude unchanged, k >= 1 multiplies
    it by (-1)**x_k. For every word the realized matrix is diagonal with
    entries in {+1, -1}, hence unitary.
    """

    __slots__ = ("var_map",)

    def __init__(self, var_map) -> None:
        vm = np.array(var_map, dtype=np.int64)
        if vm.ndim != 1 or vm.size == 0:
            raise ValueError("query diagonal must be a non-empty 1-D sequence")
        if vm.min() < 0:
            raise ValueError("variable indices must be >= 1 (0 marks a fixed slot)")
        vm.setflags(write=False)
        self.var_map = vm

    @classmethod
    def from_entries(cls, entries) -> "QuerySpec":
        return cls([0 if e.is_fixed else e.var_index for e in entries])

    @property
    def entries(self) -> tuple[QueryEntry, ...]:
        return tuple(QueryEntry(None if v == 0 else int(v)) for v in self.var_map)

    @property
    def max_var(self) -> int:
        return int(self.var_map.max())

    def __len__(self) -> int:
        return int(self.var_map.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, QuerySpec) and np.array_equal(self.var_map, other.var_map)

    def __hash__(self) -> int:
        return hash(self.var_map.tobytes())

    def __repr__(self) -> str:
        return f"QuerySpec({self.var_map.tolist()})"


class Nonzeros(NamedTuple):
    """A square matrix as its stored entries, in row-major order: every
    entry != 0, and every -0.0 so that it survives a document round trip.
    Entries not listed are 0.0, and no (row, col) pair is listed twice."""

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
        m = _kernels.scatter(*self, (dim, dim))
        m.setflags(write=False)
        return m


class Stage(NamedTuple):
    """One stage: the stored entries of its unitary, and its query."""

    nonzeros: Nonzeros
    query: QuerySpec

    @property
    def unitary(self) -> np.ndarray:
        """The dense unitary, built on each access."""
        return self.nonzeros.dense(len(self.query))


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
    else:
        a = as_matrix(m)
        if a.shape[0] != dim:
            raise ValueError(f"{what} has dimension {a.shape[0]}, expected {dim}")
        m = Nonzeros.of(a)
    _locked(m.values, what)
    m.rows.setflags(write=False)
    m.cols.setflags(write=False)
    return m


class QueryAlgorithm:
    """A complete query algorithm over n_vars Boolean variables.

    Every stage unitary and the final unitary are held as their Nonzeros
    only, O(K) numbers for each of the builder's stages; `stage.unitary` and
    `final_unitary` build a read-only dense copy on each access. The
    constructor takes dense matrices, Nonzeros and Stage objects alike.

    Construction validates structure: a unit-norm power-of-two start state,
    finite entries and matching dimensions everywhere, variable indices
    within [1, n_vars], and binary labels. Unitarity of the matrices is a
    behavioral property checked separately (`unitary_within`); keeping it
    out of the constructor lets damaged algorithms be loaded and checked.
    Damage that changes some run is convicted by `check_exact` with a
    concrete counterexample. Damage confined to matrix columns the start
    state never reaches changes no run, so only `unitary_within` reveals it.
    """

    __slots__ = ("n_vars", "start", "stages", "final_nonzeros", "labels")

    def __init__(self, n_vars: int, start, stages, final_unitary, labels) -> None:
        if n_vars < 1:
            raise ValueError(f"n_vars must be positive, got {n_vars}")
        start_arr = _locked(np.array(as_state(start), dtype=np.float64), "start state")
        dim = start_arr.shape[0]

        built: list[Stage] = []
        for idx, (unitary, query) in enumerate(stages, start=1):
            if not isinstance(query, QuerySpec):
                query = QuerySpec(query)
            if len(query) != dim:
                raise ValueError(f"stage {idx} query has {len(query)} slots, expected {dim}")
            if query.max_var > n_vars:
                raise ValueError(
                    f"stage {idx} queries variable {query.max_var} but n_vars = {n_vars}")
            built.append(Stage(_stored(unitary, dim, f"stage {idx} unitary"), query))
        if not built:
            raise ValueError("an algorithm needs at least one stage")

        labels_arr = np.asarray(labels)
        if labels_arr.shape != (dim,):
            raise ValueError(f"labels must have shape ({dim},), got {labels_arr.shape}")
        if not np.isin(labels_arr, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        labels_arr = labels_arr.astype(np.uint8)
        labels_arr.setflags(write=False)

        self.n_vars = int(n_vars)
        self.start = start_arr
        self.stages = tuple(built)
        self.final_nonzeros = _stored(final_unitary, dim, "final unitary")
        self.labels = labels_arr

    @property
    def dim(self) -> int:
        return self.start.shape[0]

    @property
    def t_queries(self) -> int:
        return len(self.stages)

    @property
    def final_unitary(self) -> np.ndarray:
        """The dense final unitary, built on each access."""
        return self.final_nonzeros.dense(self.dim)

    def unitary_within(self, tol: float = MATRIX_TOL) -> bool:
        """True iff every stage unitary and the final unitary pass is_unitary."""
        return all(is_unitary(st.unitary, tol) for st in self.stages) and \
            is_unitary(self.final_unitary, tol)


@dataclass(frozen=True)
class RunTrace:
    """States after each transformation: start, then alternating unitary /
    query states per stage, then the state after the final unitary.

    Length is always 2 * t_queries + 2.
    """

    states: tuple[np.ndarray, ...]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def after_stage(self, i: int) -> np.ndarray:
        """State after stage i's query (1-based stage number)."""
        return self.states[2 * i]


@dataclass(frozen=True)
class ComputeResult:
    output: int
    probability: float
    exact: bool
    p0: float
    p1: float


@dataclass(frozen=True)
class ExactnessReport:
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


def query_signs(spec: QuerySpec, bits: np.ndarray) -> np.ndarray:
    """The +-1 diagonal realized by a query spec on concrete input bits."""
    extended = np.concatenate(([0], bits)).astype(np.float64)
    return 1.0 - 2.0 * extended[spec.var_map]


def realize_query(spec: QuerySpec, word: str) -> np.ndarray:
    """Concrete diagonal query matrix for one input word.

    The word only needs to cover the variables the spec mentions, so specs
    can be realized standalone without a full algorithm around them.
    """
    bits = parse_word(word)
    if spec.max_var > bits.shape[0]:
        raise ValueError(
            f"query references variable {spec.max_var} but the word has {bits.shape[0]} bits")
    return np.diag(query_signs(spec, bits))


def run(alg: QueryAlgorithm, word: str) -> RunTrace:
    """Execute the pipeline on one word, recording the state after every
    transformation (exactly t_queries query applications)."""
    bits = parse_word(word, alg.n_vars)
    states = [alg.start]
    state = alg.start
    for stage in alg.stages:
        state = stage.unitary @ state
        states.append(state)
        state = state * query_signs(stage.query, bits)
        states.append(state)
    state = alg.final_unitary @ state
    states.append(state)
    for s in states:
        s.setflags(write=False)
    return RunTrace(states=tuple(states))


def measure(final: np.ndarray, labels) -> tuple[float, float]:
    """Probabilities (p0, p1) of the two outputs under the label map.

    p_j sums the squared amplitudes of all basis states labeled j; the
    result only depends on |amplitude|, never on its sign.
    """
    v = np.asarray(final, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.uint8)
    if v.shape != lab.shape:
        raise ValueError(f"state shape {v.shape} does not match labels shape {lab.shape}")
    if lab.max(initial=0) > 1:
        raise ValueError("labels must be 0 or 1")
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


def run_batch(alg: QueryAlgorithm, words: np.ndarray) -> list[np.ndarray]:
    """Vectorized run over many words at once (a row per word).

    Returns the same 2T + 2 snapshots as `run`, each as a (len(words), dim)
    array. Meant for property sweeps; per-word rows agree with `run` up to
    BLAS accumulation order (a few ulps), not bitwise.
    """
    words = np.asarray(words, dtype=np.int64)
    n = alg.n_vars
    shifts = (n - np.arange(1, n + 1)).astype(np.int64)
    signs = np.empty((words.shape[0], n + 1), dtype=np.float64)
    signs[:, 0] = 1.0
    signs[:, 1:] = 1.0 - 2.0 * ((words[:, None] >> shifts[None, :]) & 1)

    states = np.tile(alg.start, (words.shape[0], 1))
    snapshots = [states]
    for stage in alg.stages:
        states = states @ stage.unitary.T
        snapshots.append(states)
        states = states * signs[:, stage.query.var_map]
        snapshots.append(states)
    snapshots.append(states @ alg.final_unitary.T)
    return snapshots


# ---------------------------------------------------------------------------
# exhaustive exactness checking
# ---------------------------------------------------------------------------


def _sweep_arrays(alg: QueryAlgorithm) -> _kernels.SweepArrays:
    """Kernel-ready arrays for _kernels.sweep_range (see sweep_arrays there)."""
    return _kernels.sweep_arrays(alg.n_vars, alg.start, [st.nonzeros for st in alg.stages],
                                 [st.query.var_map for st in alg.stages],
                                 alg.final_nonzeros, alg.labels)


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
    if f.arity > MAX_SWEEP_VARS:
        raise ValueError(
            f"exhaustive check capped at {MAX_SWEEP_VARS} variables, got {f.arity}")

    with np.errstate(over="ignore", invalid="ignore"):
        first, min_prob = _kernels.sweep_range(*_sweep_arrays(alg), alg.n_vars, 0,
                                               1 << alg.n_vars, f.values(), EXACT_TOL)
    counterexample = index_to_word(first, alg.n_vars) if first >= 0 else None
    return ExactnessReport(exact=first < 0, counterexample=counterexample,
                           min_probability=min_prob, inputs_checked=1 << alg.n_vars)
