"""Size caps and numeric tolerances, gathered in one place.

Every cap is enforced with a loud ValueError at the call that would exceed
it, never by silent truncation. Each module that uses a cap or a tolerance
imports it under the same name (`builder.MAX_BUILD_VARS`,
`model.MAX_SWEEP_VARS`, `boolfunc.MAX_SWEEP_VARS`, `linalg.MAX_DIM`,
`strings.MAX_STRING_LEN`, `linalg.MATRIX_TOL`, `linalg.NORM_TOL`,
`model.EXACT_TOL`).
"""

# Exhaustive verification of larger instances stops being a desk job, so
# the builder refuses them outright.
MAX_BUILD_VARS = 24

# 2**24 words is the loud upper limit for exhaustive sweeps: quantum
# (check_exact), classical (classical_query_counts) and sensitivity alike.
# Sensitivity takes a few bit operations per variable on the truth table
# held as one 2**N-bit int (boolfunc.bit_sensitivity): at 24 variables the
# verifier's takes about 0.2 s and 35 MB peak RSS on a 2-vCPU guest. It is
# checked before any table int is built.
MAX_SWEEP_VARS = 24

# Largest matrix dimension hadamard_power builds; a dense float64 matrix of
# this dimension already takes 32 GiB.
MAX_DIM = 1 << 16

# Largest dimension an algorithm document may declare, whatever form its
# matrices take: that of the builder's n = 24 algorithm. The loader keeps
# the nonzeros and kron forms without scattering them, but a small
# document could otherwise declare any size. The one Gram residual
# (_kernels.gram_residual) scatters each connected column block of a stage
# or final factor and takes its Gram product: a builder stage is 1 x 1 and
# 2 x 2 blocks, but a dense stage is one block of up to dim**2 floats,
# 128 MiB at this cap, so the cap stays. The builder's own final factors
# are 4 x 4.
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
