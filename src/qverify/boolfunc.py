"""Classical side: Boolean functions, sensitivity, and the decision-tree
baseline for codeword verification.

The built-in verifier function accepts an even-length word exactly when
every consecutive bit pair (x1,x2), (x3,x4), ... is equal, i.e. when the
word is a valid duplicate-each-bit codeword. Arbitrary functions are
supported through explicit truth tables so loaded algorithms can be
checked against anything.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .limits import MAX_SENSITIVITY_VARS, MAX_SWEEP_VARS
from .words import index_to_word, parse_word


@dataclass(frozen=True, eq=False)
class BooleanFunction:
    """An N-variable Boolean function: the built-in verifier or a table.

    `table` is None for the built-in pair-equality verifier and otherwise
    holds all 2**N output bits indexed by input word value.
    """

    arity: int
    table: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError(f"arity must be positive, got {self.arity}")
        if self.table is None:
            if self.arity % 2 != 0:
                raise ValueError(f"the pair verifier needs an even arity, got {self.arity}")
        else:
            table = np.asarray(self.table)
            if table.ndim != 1 or table.shape[0] != (1 << self.arity):
                raise ValueError(
                    f"truth table must have 2**{self.arity} entries, got shape {table.shape}")
            if not np.isin(table, (0, 1)).all():
                raise ValueError("truth table entries must be 0 or 1")
            table = np.ascontiguousarray(table, dtype=np.uint8)
            table.setflags(write=False)
            object.__setattr__(self, "table", table)

    @classmethod
    def verify(cls, n: int) -> "BooleanFunction":
        """The n-variable codeword verifier (n even)."""
        return cls(arity=n)

    @classmethod
    def from_table(cls, bits) -> "BooleanFunction":
        table = np.asarray(bits)
        n = int(table.shape[0]).bit_length() - 1
        return cls(arity=n, table=table)

    def evaluate(self, word: str) -> int:
        """Function value on one word; raises ValueError on a length mismatch."""
        parse_word(word, self.arity)
        w = int(word, 2)
        return int(self.values_range(w, w + 1)[0])

    __call__ = evaluate

    def values_range(self, lo: int, hi: int) -> np.ndarray:
        """Output bits for every input integer in [lo, hi)."""
        if self.table is not None:
            return self.table[lo:hi]
        return _kernels.verify_values_range(self.arity, lo, hi)

    def values(self) -> np.ndarray:
        """The full truth table as a uint8 array."""
        return self.values_range(0, 1 << self.arity)


def sensitivity(f: BooleanFunction) -> tuple[int, str]:
    """Maximum sensitivity of f and the first witness in word order.

    The sensitivity on a word is the number of single-bit flips that change
    the function value; the result maximizes over all 2**N words.
    """
    if f.arity > MAX_SENSITIVITY_VARS:
        raise ValueError(
            f"sensitivity sweep capped at {MAX_SENSITIVITY_VARS} variables, got {f.arity}")
    table = f.values()
    value, witness = _kernels.table_sensitivity(table, f.arity)
    return value, index_to_word(witness, f.arity)


@dataclass(frozen=True)
class ClassicalRunReport:
    """Outcome of one classical decision-tree run."""

    output: int
    queries_used: int = field(init=False)
    query_sequence: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "queries_used", len(self.query_sequence))


def bit_oracle(word: str) -> Callable[[int], int]:
    """Wrap a word as a query callback: oracle(k) returns bit x_k (1-based)."""
    bits = parse_word(word)
    return lambda k: int(bits[k - 1])


def classical_verify(oracle: Callable[[int], int], n: int) -> ClassicalRunReport:
    """Deterministic decision-tree verifier with query counting.

    Scans pairs left to right, querying x1,x2 then x3,x4 and so on, and
    answers 0 as soon as a pair differs. Accepting words always cost all n
    queries; no deterministic strategy does better in the worst case.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"verifier arity must be even and >= 2, got {n}")
    asked: list[int] = []

    def ask(k: int) -> int:
        asked.append(k)
        bit = int(oracle(k))
        if bit not in (0, 1):
            raise ValueError(f"oracle returned non-bit {bit!r} for variable {k}")
        return bit

    for j in range(n // 2):
        if ask(2 * j + 1) != ask(2 * j + 2):
            return ClassicalRunReport(output=0, query_sequence=tuple(asked))
    return ClassicalRunReport(output=1, query_sequence=tuple(asked))


def classical_query_counts(n: int) -> np.ndarray:
    """Queries used by classical_verify on every n-bit word, by word value:
    2j + 2 when pair j is the first that differs, else n."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"verifier arity must be even and >= 2, got {n}")
    if n > MAX_SWEEP_VARS:
        raise ValueError(
            f"exhaustive classical sweep capped at {MAX_SWEEP_VARS} variables, got {n}")
    return _kernels.classical_query_counts(n)


def classical_worst_case(n: int) -> int:
    """Worst-case query count of the classical verifier over all words."""
    return int(classical_query_counts(n).max())
