"""Bitstring ("word") parsing and formatting helpers, and the size rules.

A word is a plain Python string of '0'/'1' characters whose leftmost
character is variable x1. Lexicographic order over words of one length is
therefore the numeric order of their integer values.

Every size passes `check_length` before any arithmetic on it. `check_even`,
the one even-size rule, serves builder, boolfunc, classical and strings;
`check_sweep`, the one cap on an exhaustive sweep (limits.MAX_SWEEP_VARS),
serves model.check_exact and boolfunc's sensitivity, query counts and table.

Only `parse_word` imports numpy, so `check_word` and `ReadOnly`, the one
read-only base of the value classes, serve callers that never load it.
"""

from __future__ import annotations

from numbers import Integral

from .limits import MAX_SWEEP_VARS


class ReadOnly:
    """Base of the validated value classes: __init__ sets the slots once,
    assignment and deletion raise AttributeError, and copies and pickles
    re-run the subclass constructor on the slots' values, in slot order."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(type(self).__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in type(self).__slots__)


def check_length(value, what: str) -> int:
    """`value` as an int if it is a Python or numpy integer >= 1, not a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{what} must be positive, got {value}")
    return int(value)


def check_even(value, what: str) -> int:
    """`value` as an int if `check_length` takes it and it is even."""
    if (n := check_length(value, what)) % 2 != 0:
        raise ValueError(f"{what} must be even, got {n}")
    return n


def check_sweep(n: int, sweep: str) -> int:
    """`n` if a sweep over its 2**n words is within MAX_SWEEP_VARS, else
    ValueError naming the sweep: compared before any table is built."""
    if n > MAX_SWEEP_VARS:
        raise ValueError(f"{sweep} capped at {MAX_SWEEP_VARS} variables, got {n}")
    return n


def check_word(word: str, length: int | None = None) -> str:
    """Return `word` if it is a binary word, else raise.

    Raises TypeError on a non-string and ValueError on an empty word,
    non-binary characters or, when `length` is given, a length mismatch.
    """
    if not isinstance(word, str):
        raise TypeError(f"expected a bitstring, got {type(word).__name__}")
    if length is not None and len(word) != length:
        raise ValueError(f"expected a word of length {length}, got {len(word)!r}")
    if not word:
        raise ValueError("empty word")
    if not set(word) <= {"0", "1"}:
        raise ValueError(f"word must contain only '0' and '1': {word!r}")
    return word


def parse_word(word: str, length: int | None = None):
    """Parse a word into a numpy uint8 bit array (leftmost bit first),
    raising what `check_word` raises."""
    import numpy as np

    return np.frombuffer(check_word(word, length).encode("ascii"), dtype=np.uint8) - ord("0")


def index_to_word(index: int, length: int) -> str:
    """The length-bit word of a Python or numpy integer in [0, 2**length),
    leftmost bit most significant; ValueError on a bool or a non-integer,
    as `check_length`, and on an integer out of range."""
    if isinstance(index, bool) or not isinstance(index, Integral):
        raise ValueError(f"word index must be an integer, got {index!r}")
    # int(): numpy overflows shifting by a length past int64.
    if index < 0 or int(index) >> length:
        raise ValueError(f"index {index} out of range for {length}-bit words")
    return format(index, f"0{length}b")
