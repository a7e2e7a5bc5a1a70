"""String equality through the codeword verifier.

Two k-bit strings y and z are equal exactly when their interleaving
y1 z1 y2 z2 ... yk zk is a valid duplicated-bit codeword, so the 2k-variable
verifier algorithm decides equality with k queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .builder import build_algorithm
from .limits import MAX_STRING_LEN
from .model import compute
from .words import check_word


@dataclass(frozen=True)
class StringPair:
    """Two equal-length binary strings to compare."""

    y: str
    z: str

    def __post_init__(self) -> None:
        check_word(self.y)
        check_word(self.z)
        if len(self.y) != len(self.z):
            raise ValueError(
                f"strings must have equal length, got {len(self.y)} and {len(self.z)}")

    @property
    def length(self) -> int:
        return len(self.y)


def interleave(pair: StringPair) -> str:
    """The 2k-bit word with y on odd positions and z on even positions."""
    return "".join(a + b for a, b in zip(pair.y, pair.z))


def deinterleave(word: str) -> StringPair:
    """Inverse of interleave; requires an even-length word."""
    check_word(word)
    if len(word) % 2 != 0:
        raise ValueError(f"cannot split an odd-length word of {len(word)} bits")
    return StringPair(y=word[0::2], z=word[1::2])


def strings_equal(pair: StringPair) -> bool:
    """Decide y == z by running the 2k-variable verifier on the interleaving
    (model.compute on the built algorithm). The run is exact by
    construction; a non-exact outcome would mean a broken build and raises.
    """
    k = pair.length
    if k > MAX_STRING_LEN:
        raise ValueError(f"string length capped at {MAX_STRING_LEN}, got {k}")
    word = interleave(pair)
    result = compute(build_algorithm(2 * k), word)
    if not result.exact:
        raise RuntimeError(f"equality run was not exact on {word!r} (p={result.probability!r})")
    return result.output == 1
