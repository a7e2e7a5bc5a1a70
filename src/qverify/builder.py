"""Constructs the N/2-query verifier algorithm for duplicated-bit words.

The construction uses T = n/2 stages on K = 2**T amplitudes. Stage i picks
the 2**i evenly spaced basis indices j * K/2**i (0-based; these and the
variable indices are the only places where any 1-based bookkeeping from
hand notation is converted), takes them as consecutive pairs (t1, t2), and

  * embeds a 2x2 Hadamard block at rows/columns (t1, t2) of an identity
    matrix, and
  * queries variable 2i-1 at every t1 slot and variable 2i at every t2
    slot of the diagonal query.

The final transformation is the T-fold Hadamard tensor power, held as its
Kronecker factors: T // 2 copies of the 4 x 4 power, then one 2 x 2
Hadamard when T is odd, whose product is hadamard_power(T). The start
state is (1, 0, ..., 0), and only basis state 0 is labeled as output 1.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import _SIGNS
from .limits import MAX_BUILD_VARS
from .model import Kron, Nonzeros, QueryAlgorithm, is_power_of_two
from .words import check_even, check_length

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def hadamard_power(t: int) -> np.ndarray:
    """The t-fold tensor power of the 2x2 Hadamard matrix, t <= 12: the
    builder's final factors multiplied out, as a new read-only array.

    Entry (i, j) equals 2**(-t/2) * (-1)**popcount(i & j), exactly. t = 0 is
    rejected rather than defined as the 1x1 identity so that construction
    bugs surface early.
    """
    return final_factors(t).dense()


def index_set(i: int, k: int) -> np.ndarray:
    """The 2**i evenly spaced stage-i indices for dimension k (0-based)."""
    if not is_power_of_two(k := check_length(k, "dimension")):
        raise ValueError(f"dimension must be a power of two, got {k}")
    if check_length(i, "stage number") >= k.bit_length():  # 1 << i > k
        raise ValueError(f"stage {i} needs spacing k/2**i >= 1, but k = {k}")
    spacing = k >> i
    return np.arange(1 << i, dtype=np.int64) * spacing


def build_stage_nonzeros(i: int, k: int) -> Nonzeros:
    """Identity with a Hadamard block at each stage-i pair (t1, t2), as its
    K + 2**i nonzeros."""
    indices = index_set(i, k)
    t1, t2 = indices[0::2], indices[1::2]
    fixed = np.ones(k, dtype=bool)
    fixed[indices] = False
    fixed = np.flatnonzero(fixed)
    rows = np.concatenate((fixed, t1, t1, t2, t2))
    cols = np.concatenate((fixed, t1, t2, t1, t2))
    values = np.repeat([1.0, _INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2],
                       [fixed.size] + [t1.size] * 4)
    order = np.argsort(rows * k + cols)
    return Nonzeros(rows[order], cols[order], values[order])


def build_stage_unitary(i: int, k: int) -> np.ndarray:
    """Stage i's unitary as a dense matrix."""
    return build_stage_nonzeros(i, k).dense(k).copy()


def build_stage_query(i: int, k: int) -> np.ndarray:
    """Stage i's read-only var_map: variable 2i-1 at t1 slots and 2i at t2
    slots, fixed (0) elsewhere."""
    indices = index_set(i, k)
    var_map = np.zeros(k, dtype=np.int64)
    var_map[indices[0::2]] = 2 * i - 1
    var_map[indices[1::2]] = 2 * i
    var_map.setflags(write=False)
    return var_map


def final_factors(t: int) -> Kron:
    """The T-fold Hadamard power as Kronecker factors: one stored 4 x 4
    power, shared T // 2 times, then the 2 x 2 Hadamard when T is odd."""
    if (t := check_length(t, "t")) > MAX_BUILD_VARS // 2:
        raise ValueError(f"t must be at most {MAX_BUILD_VARS // 2}, got {t}")
    h2, h1 = Nonzeros.of(0.5 * _SIGNS[4]), Nonzeros.of(2.0 ** -0.5 * _SIGNS[2])
    return Kron((h2,) * (t // 2) + (h1,) * (t % 2), (4,) * (t // 2) + (2,) * (t % 2))


def build_algorithm(n: int) -> QueryAlgorithm:
    """The complete n-variable verifier algorithm (n even, 2 <= n <= 24)."""
    if (n := check_even(n, "n")) > MAX_BUILD_VARS:
        raise ValueError(f"n must be at most {MAX_BUILD_VARS}, got {n}")
    t = n // 2
    k = 1 << t
    start = np.zeros(k, dtype=np.float64)
    start[0] = 1.0
    labels = np.zeros(k, dtype=np.uint8)
    labels[0] = 1
    stages = [(build_stage_nonzeros(i, k), build_stage_query(i, k)) for i in range(1, t + 1)]
    return QueryAlgorithm(n_vars=n, start=start, stages=stages,
                          final_unitary=final_factors(t), labels=labels)
