"""String equality through the codeword verifier.

Two k-bit strings y and z are equal exactly when their interleaving
y1 z1 y2 z2 ... yk zk is a valid duplicated-bit codeword, so the 2k-variable
verifier algorithm decides equality with k queries.

`strings_equal` runs the built 2k-variable verifier on that one word in
plain Python, by the builder's own stage rule, instead of building it and
going through model.compute: a single word of at most 24 bits needs no
numpy, so `qverify equal` starts without it. tests/test_strings.py pins
this run to model.compute on the built algorithm.
"""

from __future__ import annotations

import math

from .limits import MAX_STRING_LEN, exact
from .words import ReadOnly, check_even, check_word

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class StringPair(ReadOnly):
    """Two equal-length binary strings to compare (read-only)."""

    __slots__ = ("y", "z")
    __match_args__ = ("y", "z")

    def __init__(self, y: str, z: str) -> None:
        check_word(y)
        check_word(z)
        if len(y) != len(z):
            raise ValueError(f"strings must have equal length, got {len(y)} and {len(z)}")
        super().__init__(y, z)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.y, self.z) == (other.y, other.z)

    def __hash__(self) -> int:
        return hash((self.y, self.z))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(y={self.y!r}, z={self.z!r})"

    @property
    def length(self) -> int:
        return len(self.y)


def interleave(pair: StringPair) -> str:
    """The 2k-bit word with y on odd positions and z on even positions."""
    return "".join(a + b for a, b in zip(pair.y, pair.z))


def deinterleave(word: str) -> StringPair:
    """Inverse of interleave; requires an even-length word."""
    check_even(len(check_word(word)), "word length")
    return StringPair(y=word[0::2], z=word[1::2])


def _run_verifier(word: str) -> tuple[int, bool, float, float]:
    """(output, exact, p0, p1) of the built verifier on one even-length word.

    Stage i mixes each pair (top, top + K >> i), top a multiple of
    2 * (K >> i), by the 2 x 2 Hadamard block, then signs top by x_{2i-1}
    and the other slot by x_{2i}. The final Hadamard power's first row is
    uniform and row 0 is the only one labelled 1, so p1 is
    (sum(state) * 2**(-k/2))**2 and, the power keeping norms, p0 is
    |state|^2 - p1. Both sums are exact (math.fsum): summed in order, the
    2**k terms drift by up to 8e-14 from model.compute at k = 11. The
    verdict is model.decide's, by limits.exact.
    """
    k = len(word) // 2
    dim = 1 << k
    state = [0.0] * dim
    state[0] = 1.0
    for i in range(1, k + 1):
        step = dim >> i
        s1 = -1.0 if word[2 * i - 2] == "1" else 1.0
        s2 = -1.0 if word[2 * i - 1] == "1" else 1.0
        for top in range(0, dim, 2 * step):
            a, b = state[top], state[top + step]
            state[top] = (a + b) * _INV_SQRT2 * s1
            state[top + step] = (a - b) * _INV_SQRT2 * s2
    amp0 = math.fsum(state) * 2.0 ** (-k / 2.0)
    p1 = amp0 * amp0
    p0 = max(math.fsum(v * v for v in state) - p1, 0.0)
    return (1 if p1 > p0 else 0), exact(max(p0, p1), min(p0, p1)), p0, p1


def strings_equal(pair: StringPair) -> bool:
    """Decide y == z by running the 2k-variable verifier on the interleaving
    (_run_verifier). The run is exact by construction; a non-exact outcome
    would mean a broken stage rule and raises.
    """
    k = pair.length
    if k > MAX_STRING_LEN:
        raise ValueError(f"string length capped at {MAX_STRING_LEN}, got {k}")
    word = interleave(pair)
    output, ok, p0, p1 = _run_verifier(word)
    if not ok:
        raise RuntimeError(f"equality run was not exact on {word!r} (p={max(p0, p1)!r})")
    return output == 1
