"""Constructs the N/2-query verifier algorithm for duplicated-bit words.

The construction uses T = n/2 stages on K = 2**T amplitudes. Stage i picks
the 2**i evenly spaced basis indices j * K/2**i (0-based; these and the
variable indices are the only places where any 1-based bookkeeping from
hand notation is converted), takes them as consecutive pairs (t1, t2), and

  * embeds a 2x2 Hadamard block at rows/columns (t1, t2) of an identity
    matrix, and
  * queries variable 2i-1 at every t1 slot and variable 2i at every t2
    slot of the diagonal query.

The final transformation is the T-fold Hadamard tensor power, the start
state is (1, 0, ..., 0), and only basis state 0 is labeled as output 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import hadamard_power, is_power_of_two
from .model import QueryAlgorithm, QuerySpec

# Exhaustive verification of larger instances stops being a minutes-scale
# desk job, so the builder refuses them outright.
MAX_BUILD_VARS = 24

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class StagePlan:
    """Stage i's index set and its consecutive-pair partition."""

    stage: int
    indices: np.ndarray
    pairs: np.ndarray

    def __post_init__(self) -> None:
        self.indices.setflags(write=False)
        self.pairs.setflags(write=False)


def index_set(i: int, k: int) -> np.ndarray:
    """The 2**i evenly spaced stage-i indices for dimension k (0-based)."""
    if not is_power_of_two(k):
        raise ValueError(f"dimension must be a power of two, got {k}")
    if i < 1:
        raise ValueError(f"stage number must be >= 1, got {i}")
    if (1 << i) > k:
        raise ValueError(f"stage {i} needs spacing k/2**i >= 1, but k = {k}")
    spacing = k >> i
    return np.arange(1 << i, dtype=np.int64) * spacing


def stage_plan(i: int, k: int) -> StagePlan:
    indices = index_set(i, k)
    return StagePlan(stage=i, indices=indices, pairs=indices.reshape(-1, 2).copy())


def build_stage_unitary(i: int, k: int) -> np.ndarray:
    """Identity with a Hadamard block at each stage-i pair (t1, t2)."""
    plan = stage_plan(i, k)
    m = np.eye(k, dtype=np.float64)
    t1 = plan.pairs[:, 0]
    t2 = plan.pairs[:, 1]
    m[t1, t1] = _INV_SQRT2
    m[t1, t2] = _INV_SQRT2
    m[t2, t1] = _INV_SQRT2
    m[t2, t2] = -_INV_SQRT2
    return m


def build_stage_query(i: int, k: int) -> QuerySpec:
    """Query variable 2i-1 at t1 slots and 2i at t2 slots, fixed elsewhere."""
    plan = stage_plan(i, k)
    var_map = np.zeros(k, dtype=np.int64)
    var_map[plan.pairs[:, 0]] = 2 * i - 1
    var_map[plan.pairs[:, 1]] = 2 * i
    return QuerySpec(var_map)


def build_algorithm(n: int) -> QueryAlgorithm:
    """The complete n-variable verifier algorithm (n even, 2 <= n <= 24)."""
    if n % 2 != 0 or n < 2 or n > MAX_BUILD_VARS:
        raise ValueError(f"n must be even and within [2, {MAX_BUILD_VARS}], got {n}")
    t = n // 2
    k = 1 << t
    start = np.zeros(k, dtype=np.float64)
    start[0] = 1.0
    labels = np.zeros(k, dtype=np.uint8)
    labels[0] = 1
    stages = [(build_stage_unitary(i, k), build_stage_query(i, k)) for i in range(1, t + 1)]
    return QueryAlgorithm(n_vars=n, start=start, stages=stages,
                          final_unitary=hadamard_power(t), labels=labels)
