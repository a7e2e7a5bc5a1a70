"""Bitstring ("word") parsing and formatting helpers.

A word is a plain Python string of '0'/'1' characters whose leftmost
character is variable x1. Lexicographic order over words of one length is
therefore the numeric order of their integer values.
"""

from __future__ import annotations

import numpy as np


def parse_word(word: str, length: int | None = None) -> np.ndarray:
    """Parse a word into a uint8 bit array (leftmost bit first).

    Raises ValueError on non-binary characters or, when `length` is given,
    on a length mismatch.
    """
    if not isinstance(word, str):
        raise TypeError(f"expected a bitstring, got {type(word).__name__}")
    if length is not None and len(word) != length:
        raise ValueError(f"expected a word of length {length}, got {len(word)!r}")
    if not word:
        raise ValueError("empty word")
    bits = np.frombuffer(word.encode("ascii", errors="replace"), dtype=np.uint8) - ord("0")
    if bits.max(initial=0) > 1:
        raise ValueError(f"word must contain only '0' and '1': {word!r}")
    return bits


def index_to_word(index: int, length: int) -> str:
    """The length-bit word of an integer, leftmost bit most significant."""
    if index < 0 or index >= (1 << length):
        raise ValueError(f"index {index} out of range for {length}-bit words")
    return format(index, f"0{length}b")
