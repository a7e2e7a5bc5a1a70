"""The classical decision-tree baseline for codeword verification.

It runs on plain Python strings and imports no numpy, so the `classical`
command starts without loading it.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .words import check_even, check_word


class ClassicalRunReport(NamedTuple):
    """Outcome of one classical decision-tree run."""

    output: int
    query_sequence: tuple[int, ...] = ()

    @property
    def queries_used(self) -> int:
        return len(self.query_sequence)


def bit_oracle(word: str) -> Callable[[int], int]:
    """Wrap a word as a query callback: oracle(k) returns bit x_k (1-based).

    Raises ValueError for any k outside [1, len(word)].
    """
    word = check_word(word)

    def oracle(k: int) -> int:
        if not 1 <= k <= len(word):
            raise ValueError(f"variable x{k} out of range for a {len(word)}-bit word")
        return int(word[k - 1])

    return oracle


def classical_verify(oracle: Callable[[int], int], n: int) -> ClassicalRunReport:
    """Deterministic decision-tree verifier with query counting.

    Scans pairs left to right, querying x1,x2 then x3,x4 and so on, and
    answers 0 as soon as a pair differs. Accepting words always cost all n
    queries; no deterministic strategy does better in the worst case.
    """
    n = check_even(n, "verifier arity")
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
