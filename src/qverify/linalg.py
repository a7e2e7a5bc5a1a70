"""Dense real linear algebra sized for small power-of-two dimensions.

State vectors are 1-D float64 arrays of power-of-two length with unit L2
norm; matrices are square 2-D float64 arrays. Everything is real on
purpose: the constructions in this package only ever need entries from
{0, +-2**(-k/2)}, so complex support is deliberately omitted. Exact values
like 1/sqrt(2) are not representable in binary floating point, hence the
two tolerances from qverify.limits: MATRIX_TOL for matrix identities and
NORM_TOL for norms.

All functions are pure and never mutate their arguments, so they are safe
to call from multiple threads.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _wht, gram_residual
from .limits import MATRIX_TOL, MAX_DIM, NORM_TOL
from .words import check_length


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def as_matrix(m: np.ndarray) -> np.ndarray:
    """Coerce to a square float64 matrix, raising ValueError otherwise."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_state(v: np.ndarray, tol: float = NORM_TOL) -> np.ndarray:
    """Coerce to a unit-norm float64 vector of power-of-two length."""
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"expected a vector, got shape {a.shape}")
    if not is_power_of_two(a.shape[0]):
        raise ValueError(f"state length {a.shape[0]} is not a power of two")
    with np.errstate(over="ignore"):
        norm_sq = float(a @ a)
    if abs(norm_sq - 1.0) > tol:
        raise ValueError(f"state is not normalized: |v|^2 = {norm_sq!r}")
    return a


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor (Kronecker) product of two square matrices."""
    return np.kron(as_matrix(a), as_matrix(b))


def hadamard_power(t: int) -> np.ndarray:
    """The t-fold tensor power of the 2x2 Hadamard matrix.

    Entry (i, j) equals 2**(-t/2) * (-1)**popcount(i & j), exactly: it is
    the fast Walsh-Hadamard transform of the scaled identity. t = 0 is
    rejected rather than defined as the 1x1 identity so that construction
    bugs surface early.
    """
    if t < 1:
        raise ValueError(f"hadamard_power requires t >= 1, got {t}")
    k = 1 << check_length(t, "t")
    if k > MAX_DIM:
        raise ValueError(f"dimension 2**{t} exceeds the supported maximum {MAX_DIM}")
    # Row i of the power is the transform of the unit row e_i, scaled; 512
    # rows at a time bound the transform's temporaries.
    out = np.zeros((k, k), dtype=np.float64)
    np.fill_diagonal(out, 2.0 ** (-t / 2.0))
    for lo in range(0, k, 512):
        _wht(out[lo:lo + 512])
    return out


def is_unitary(matrix: np.ndarray, tol: float = MATRIX_TOL) -> bool:
    """True iff M's rows are orthonormal within tol: the largest row sum of
    |M @ M.T - I|, gram_residual on the columns of M.T, is at most tol."""
    m = as_matrix(matrix)
    at = np.arange(m.shape[0])
    # Every entry of M.T as views, zeros too: row i, column j, value m[j, i].
    rows, cols = np.broadcast_arrays(at[:, None], at)
    return gram_residual((rows, cols, m.T), np.ones(at.size, dtype=bool)) <= tol
