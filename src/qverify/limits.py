"""Size caps and numeric tolerances, gathered in one place.

Every cap is enforced with a loud ValueError at the call that would exceed
it, never by silent truncation. The modules that use a cap or a tolerance
re-export it under its old name (`builder.MAX_BUILD_VARS`,
`model.MAX_SWEEP_VARS`, `linalg.MAX_DIM`, `boolfunc.MAX_SENSITIVITY_VARS`,
`strings.MAX_STRING_LEN`, `linalg.MATRIX_TOL`, `linalg.NORM_TOL`,
`model.EXACT_TOL`).
"""

# Exhaustive verification of larger instances stops being a desk job, so
# the builder refuses them outright.
MAX_BUILD_VARS = 24

# 2**24 pipeline executions is the loud upper limit for exhaustive sweeps,
# quantum (check_exact) and classical (classical_query_counts) alike.
MAX_SWEEP_VARS = 24

# Largest matrix dimension hadamard_power builds; a dense float64 matrix of
# this dimension already takes 32 GiB.
MAX_DIM = 1 << 16

# Largest dimension an algorithm document may declare, whatever form its
# matrices take: that of the builder's n = 24 algorithm. The loader keeps
# the nonzeros and kron forms without scattering them, but a small
# document could otherwise declare any size, and the one Gram residual
# (_kernels.gram_residual) scatters each stage and each final factor, one
# at a time, into a dense block and its Gram product, up to dim**2 floats
# each: 128 MiB at this cap. The builder's own final factors are 4 x 4.
MAX_DOC_DIM = 1 << 12

# Sensitivity costs N * 2**N table lookups; above 20 variables that stops
# being an interactive operation.
MAX_SENSITIVITY_VARS = 20

# Keeps the 2**k amplitude vector of string equality small; longer strings
# are out of scope.
MAX_STRING_LEN = 12

# Exact values like 1/sqrt(2) are not representable in binary floating
# point. MATRIX_TOL bounds the one Gram residual (is_unitary, unitary_within
# and whether a sweep may take a probability as |s|^2 minus the others);
# NORM_TOL bounds the norm of a start state.
MATRIX_TOL = 1e-12
NORM_TOL = 1e-9

# An output counts as exact when its probability is at least 1 - EXACT_TOL.
EXACT_TOL = 1e-9

# Floats (16 MiB) an exhaustive sweep keeps live: the output amplitudes of
# one block of sweep_range's words, the polynomial's terms while a
# propagation moves and merges them, each charged the floats it occupies,
# and the words of a truth table filled at once (verify_values_range).
SWEEP_BUDGET = 1 << 21
