"""Classical side: Boolean functions, sensitivity, and the query counts of
the decision-tree baseline, which itself lives in `classical`.

The built-in verifier function accepts an even-length word exactly when
every consecutive bit pair (x1,x2), (x3,x4), ... is equal, i.e. when the
word is a valid duplicate-each-bit codeword. Arbitrary functions are
supported through explicit truth tables so loaded algorithms can be
checked against anything.

This module imports numpy and `_kernels` only inside the functions that use
them, as `words.parse_word` does. The verifier's sensitivity runs on its
truth table held as one Python int (`verify_bits`, `bit_sensitivity`), so
numpy is loaded only for explicit tables and for the table arrays of the
sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .limits import MAX_SENSITIVITY_VARS, MAX_SWEEP_VARS
from .words import index_to_word, parse_word

if TYPE_CHECKING:
    import numpy as np


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
            import numpy as np

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
        import numpy as np

        table = np.asarray(bits)
        n = int(table.shape[0]).bit_length() - 1
        return cls(arity=n, table=table)

    def evaluate(self, word: str) -> int:
        """Function value on one word; raises ValueError on a length mismatch."""
        bits = parse_word(word, self.arity)
        if self.table is None:
            return int((bits[0::2] == bits[1::2]).all())
        return int(self.table[int(word, 2)])

    __call__ = evaluate

    def values_range(self, lo: int, hi: int) -> np.ndarray:
        """Output bits for every input integer in [lo, hi)."""
        if self.table is not None:
            return self.table[lo:hi]
        from . import _kernels

        return _kernels.verify_values_range(self.arity, lo, hi)

    def values(self) -> np.ndarray:
        """The full truth table as a uint8 array."""
        return self.values_range(0, 1 << self.arity)


def sensitivity(f: BooleanFunction) -> tuple[int, str]:
    """Maximum sensitivity of f and the first witness in word order.

    The sensitivity on a word is the number of single-bit flips that change
    the function value; the result maximizes over all 2**N words. The
    built-in verifier's table is built as an int (verify_bits), an explicit
    one is packed into one (_kernels.table_sensitivity).
    """
    if f.arity > MAX_SENSITIVITY_VARS:
        raise ValueError(
            f"sensitivity sweep capped at {MAX_SENSITIVITY_VARS} variables, got {f.arity}")
    if f.table is None:
        value, witness = bit_sensitivity(verify_bits(f.arity), f.arity)
    else:
        from . import _kernels

        value, witness = _kernels.table_sensitivity(f.table, f.arity)
    return value, index_to_word(witness, f.arity)


def verify_bits(n: int) -> int:
    """The n-variable verifier's truth table as an int, bit w = f(w): each
    pair of bit positions (m, m + 1), m even, adds the offsets 0 and 3 << m,
    its bits 00 and 11, to the accepted words."""
    bits = 1
    for m in range(0, n, 2):
        bits |= bits << (3 << m)
    return bits


def bit_sensitivity(bits: int, n: int) -> tuple[int, int]:
    """(max sensitivity, lexicographically first maximizing input) of the
    n-variable function whose truth table is the int `bits`, bit w = f(w).

    For each bit position k, d marks the words whose value changes when bit
    k flips: f(w) ^ f(w + 2**k) on the words whose bit k is 0 (`low`), and
    copied to their partners. The d are added as a ripple carry into
    bit-sliced counters, planes[i] holding bit i of every word's count.
    """
    size = 1 << n
    low = (1 << (size >> 1)) - 1
    planes: list[int] = []
    for k in reversed(range(n)):
        step = 1 << k
        d = (bits ^ (bits >> step)) & low
        d |= d << step
        for i, plane in enumerate(planes):
            if not d:
                break
            planes[i], d = plane ^ d, plane & d
        if d:
            planes.append(d)
        # From the words whose bit k is 0 to those whose bit k - 1 is.
        low ^= low << (step >> 1)
    # The largest count, read from the top plane down, and the words that
    # reach it; the lowest of them is the first in word order.
    value, words = 0, (1 << size) - 1
    for i in reversed(range(len(planes))):
        if words & planes[i]:
            words &= planes[i]
            value |= 1 << i
    return value, (words & -words).bit_length() - 1


def classical_query_counts(n: int) -> np.ndarray:
    """Queries used by classical_verify on every n-bit word, by word value:
    2j + 2 when pair j is the first that differs, else n."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"verifier arity must be even and >= 2, got {n}")
    if n > MAX_SWEEP_VARS:
        raise ValueError(
            f"exhaustive classical sweep capped at {MAX_SWEEP_VARS} variables, got {n}")
    from . import _kernels

    return _kernels.classical_query_counts(n)


def classical_worst_case(n: int) -> int:
    """Worst-case query count of the classical verifier over all words."""
    return int(classical_query_counts(n).max())
