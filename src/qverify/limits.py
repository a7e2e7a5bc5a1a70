"""Size caps and numeric tolerances, gathered in one place.

Every cap is enforced with a loud ValueError at the call that would exceed
it, never by silent truncation. The sweep cap is read by its one rule,
`words.check_sweep`; every other cap, tolerance and budget by the modules
that use it, under the same name (`builder.MAX_BUILD_VARS`,
`builder.MAX_DOC_DIM`, `serialize.MAX_DOC_DIM`, `strings.MAX_STRING_LEN`,
`model.MATRIX_TOL`, `_kernels.MATRIX_TOL`, `model.NORM_TOL`,
`model.EXACT_TOL`, `strings.EXACT_TOL`, `_kernels.SWEEP_BUDGET`).
"""

# Exhaustive verification of larger instances stops being a desk job, so
# the builder refuses them outright.
MAX_BUILD_VARS = 24

# 2**24 words is the upper limit of every exhaustive sweep, checked by
# words.check_sweep before any table is built: check_exact, sensitivity,
# classical_query_counts and the verifier's truth table. Sensitivity on the
# verifier's table, one 2**N-bit int, takes about 0.2 s and 35 MB peak RSS
# at 24 variables on a 2-vCPU guest.
MAX_SWEEP_VARS = 24

# The one cap on a matrix built or read whole: the largest dimension
# hadamard_power builds (t <= 12, 128 MiB dense), and the largest an
# algorithm document may declare, whatever form its matrices take: that of
# the builder's n = 24 algorithm. The loader keeps the nonzeros and kron
# forms without scattering them, but a small document could otherwise
# declare any size. The one Gram residual (_kernels.gram_residual) scatters
# each connected column block of a stage or final factor and takes its
# Gram product: a builder stage is 1 x 1 and 2 x 2 blocks, but a dense
# stage is one block of up to dim**2 floats, 128 MiB at this cap, so the
# cap stays. The builder's own final factors are 4 x 4.
MAX_DOC_DIM = 1 << 12

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
# one block of sweep_range's words, and the polynomial's terms while a
# propagation moves and merges them, each charged the floats it occupies.
SWEEP_BUDGET = 1 << 21
