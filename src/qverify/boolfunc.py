"""Classical side: Boolean functions, their truth tables, sensitivity, and
the query counts of the decision-tree baseline, which itself lives in
`classical`.

The built-in verifier function accepts an even-length word exactly when
every consecutive bit pair (x1,x2), (x3,x4), ... is equal, i.e. when the
word is a valid duplicate-each-bit codeword. Arbitrary functions are
supported through explicit truth tables so loaded algorithms can be
checked against anything. `bit_vector` is the one rule for a Boolean
vector: a truth table, and in `model` an algorithm's labels, pass it.

The verifier's truth table is built once, as one Python int
(`verify_bits`); its sensitivity reads the int and its arrays are unpacked
from it. Numpy is imported only inside the functions that take or return
arrays, so `evaluate` and the verifier's sensitivity run without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .words import ReadOnly, check_even, check_length, check_sweep, check_word, index_to_word

if TYPE_CHECKING:
    import numpy as np


class BooleanFunction(ReadOnly):
    """An N-variable Boolean function: the built-in verifier or a table.

    `table` is None for the built-in pair-equality verifier and otherwise
    holds all 2**N output bits indexed by input word value, a read-only copy.
    Instances are read-only (ReadOnly) and compare by identity.
    """

    __slots__ = ("arity", "table")

    def __init__(self, arity: int, table: np.ndarray | None = None) -> None:
        if table is None:
            arity = check_even(arity, "verifier arity")
        else:
            import numpy as np

            arity, table = check_length(arity, "arity"), np.asarray(table)
            # Bit lengths first, so that 1 << arity is never built for a huge arity.
            if table.ndim != 1 or len(table).bit_length() != arity + 1 or len(table) != 1 << arity:
                raise ValueError(
                    f"truth table must have 2**{arity} entries, got shape {table.shape}")
            table = bit_vector(table, "truth table entries must be 0 or 1")
        super().__init__(arity, table)

    @classmethod
    def verify(cls, n: int) -> "BooleanFunction":
        """The n-variable codeword verifier (n even)."""
        return cls(arity=n)

    def evaluate(self, word: str) -> int:
        """Function value on one word; raises ValueError on a length mismatch."""
        w = int(check_word(word, self.arity), 2)
        if self.table is None:
            return int(_pair_diffs(w, self.arity) == 0)
        return int(self.table[w])

    def values(self) -> np.ndarray:
        """The full truth table as a uint8 array, the verifier's under the sweep cap."""
        if self.table is not None:
            return self.table
        check_sweep(self.arity, "verifier truth table")
        return verify_values_range(self.arity, 0, 1 << self.arity)


def bit_vector(values, message: str) -> np.ndarray:
    """The one Boolean-vector rule: `values` as a new read-only uint8 array
    when every entry is == 0 or == 1, else ValueError(message)."""
    import numpy as np

    a = np.asarray(values)
    if not np.all((a == 0) | (a == 1)):
        raise ValueError(message)
    a = a.astype(np.uint8)
    a.setflags(write=False)
    return a


def sensitivity(f: BooleanFunction) -> tuple[int, str]:
    """Maximum sensitivity of f and the first witness in word order.

    The sensitivity on a word is the number of single-bit flips that change
    the function value; the result maximizes over all 2**N words. The
    built-in verifier's table is built as an int (verify_bits), an explicit
    one is packed into one (table_sensitivity).
    """
    check_sweep(f.arity, "sensitivity sweep")
    if f.table is None:
        value, witness = bit_sensitivity(verify_bits(f.arity), f.arity)
    else:
        value, witness = table_sensitivity(f.table, f.arity)
    return value, index_to_word(witness, f.arity)


def verify_bits(n: int) -> int:
    """The n-variable verifier's truth table as an int, bit w = f(w): each
    pair of bit positions (m, m + 1), m even, adds the offsets 0 and 3 << m,
    its bits 00 and 11, to the accepted words."""
    bits = 1
    for m in range(0, n, 2):
        bits |= bits << (3 << m)
    return bits


def verify_values_range(n: int, lo: int, hi: int) -> np.ndarray:
    """Verifier outputs, as uint8, for every input integer in [lo, hi):
    bits [lo, hi) of verify_bits(n), unpacked."""
    import numpy as np

    bits = verify_bits(n) >> lo & ((1 << (hi - lo)) - 1)
    packed = np.frombuffer(bits.to_bytes((hi - lo + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=hi - lo, bitorder="little")


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


def table_sensitivity(table: np.ndarray, n: int) -> tuple[int, int]:
    """bit_sensitivity of a truth table array, packed into one int, bit w =
    table[w]."""
    import numpy as np

    packed = np.packbits(table, bitorder="little")
    return bit_sensitivity(int.from_bytes(packed.tobytes(), "little"), n)


def _pair_diffs(words, n: int):
    """The pair rule, on an int or an int64 array of n-bit words: bit
    n - 2j - 2 (mask (1 << n) // 3) is set iff pair j, from 0, differs."""
    return (words ^ (words >> 1)) & ((1 << n) // 3)


def classical_query_counts(n: int) -> np.ndarray:
    """Queries used by classical_verify on every n-bit word, by word value:
    2j + 2 = n - p when pair j, bit p of _pair_diffs, is the first that
    differs, else n."""
    n = check_sweep(check_even(n, "verifier arity"), "exhaustive classical sweep")
    import numpy as np

    diffs = _pair_diffs(np.arange(1 << n, dtype=np.int64), n)
    # frexp's exponent is p + 1 for a highest set bit p, and 0 for 0.
    return np.minimum(n + 1 - np.frexp(diffs)[1], n).astype(np.int64)


def classical_worst_case(n: int) -> int:
    """Worst-case query count of the classical verifier over all words."""
    return int(classical_query_counts(n).max())
