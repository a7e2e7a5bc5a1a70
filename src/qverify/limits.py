"""Size caps and numeric tolerances, gathered in one place.

Every cap is enforced with a loud ValueError at the call that would exceed
it, never by silent truncation. The sweep cap is read by its one rule,
`words.check_sweep`; every other cap, tolerance and budget by the modules
that use it, under the same name (`builder.MAX_BUILD_VARS`,
`serialize.MAX_DOC_DIM`, `strings.MAX_STRING_LEN`, `model.MATRIX_TOL`,
`_kernels.MATRIX_TOL`, `model.EXACT_TOL`, `_kernels.SWEEP_BUDGET`), and the
one exactness rule as `_kernels.exact`, `model.exact` and `strings.exact`.
"""

# Exhaustive verification of larger instances stops being a desk job, so
# the builder refuses them outright; its dense views, hadamard_power
# included, stay within 2**12 (128 MiB).
MAX_BUILD_VARS = 24

# 2**24 words is the upper limit of every exhaustive sweep, checked by
# words.check_sweep before any table is built: check_exact, sensitivity,
# classical_query_counts and the verifier's truth table. Sensitivity on the
# verifier's table, one 2**N-bit int, takes about 0.2 s and 35 MB peak RSS
# at 24 variables on a 2-vCPU guest.
MAX_SWEEP_VARS = 24

# The largest dimension an algorithm document may declare, whatever form
# its matrices take: that of the builder's n = 24 algorithm. A small
# document in the nonzeros or kron form could otherwise declare any size,
# and the one Gram residual (_kernels.gram_residual) takes a loaded dense
# stage as one connected column block of up to dim**2 floats, 128 MiB here.
MAX_DOC_DIM = 1 << 12

# Keeps the 2**k amplitude vector of string equality small; longer strings
# are out of scope.
MAX_STRING_LEN = 12

# Exact values like 1/sqrt(2) are not representable in binary floating
# point. MATRIX_TOL bounds the one Gram residual (is_unitary, unitary_within,
# which reads the start state as one column, and whether a sweep may take a
# probability as |s|^2 minus the others).
MATRIX_TOL = 1e-12

# The tolerance of exact, the one exactness rule, read by every verdict.
EXACT_TOL = 1e-9


def exact(p_want, p_other, tol=EXACT_TOL):
    """|p_want - 1| <= tol and p_other <= tol: elementwise, a bool on floats."""
    return (abs(p_want - 1.0) <= tol) & (p_other <= tol)


# Floats (16 MiB) in one block of sweep_range's output amplitudes, and in a
# propagation's terms as it moves and merges them. Not the sweep's live set,
# which peaks near 163 MiB at n = 24: the truth table and nine such arrays.
SWEEP_BUDGET = 1 << 21
