"""Hand-checked reference values for the 4-bit and 6-bit verifier instances.

FOUR_BIT_RUNS holds, for every 4-bit word, the state after stage 1
(unitary + query), the state after stage 2, the final state, and the output
bit. The 6-bit fixtures are the stage matrices and query layouts written
out entry by entry, independent of the builder's index arithmetic.
`naive_check` is the word-by-word reference for exhaustive sweeps,
`naive_sensitivity` the flip-by-flip one for sensitivity, and
`hadamard_rows` the entry formula of the Hadamard power.
"""

import numpy as np

from qverify import measure, run
from qverify.model import EXACT_TOL


def naive_check(alg, f):
    """(counterexample, min correct probability) computed word by word with
    the naive `run`: the values check_exact must reproduce. A word passes
    when the expected label's probability is within EXACT_TOL of 1 and the
    other label's is at most EXACT_TOL."""
    counterexample, probs = None, []
    for w in range(1 << alg.n_vars):
        word = format(w, f"0{alg.n_vars}b")
        p0, p1 = measure(run(alg, word).final, alg.labels)
        right, wrong = (p1, p0) if f.evaluate(word) else (p0, p1)
        probs.append(right)
        if counterexample is None and not (abs(right - 1.0) <= EXACT_TOL and wrong <= EXACT_TOL):
            counterexample = word
    return counterexample, min(probs)


def naive_sensitivity(table, n):
    """(max sensitivity, first maximizing input) by the definition: per
    variable, count the words whose value changes when its bit flips."""
    table = np.ascontiguousarray(table, dtype=np.uint8)
    idx = np.arange(table.shape[0], dtype=np.int64)
    counts = np.zeros(table.shape[0], dtype=np.int64)
    for pos in range(n):
        counts += table != table[idx ^ (1 << pos)]
    best = int(np.argmax(counts))
    return int(counts[best]), best


def hadamard_rows(t, rows):
    """Rows `rows` (a slice) of the t-fold Hadamard power by its entry
    formula, 2**(-t/2) * (-1)**popcount(i & j), without the builder."""
    k = np.arange(1 << t)
    parity = np.zeros(k.size, dtype=np.uint8)
    for bit in range(t):
        parity ^= (k >> bit & 1).astype(np.uint8)
    odd = parity[k[rows, None] & k]
    return np.where(odd == 1, -(2.0 ** (-t / 2)), 2.0 ** (-t / 2))


R = 1.0 / np.sqrt(2.0)   # 1/sqrt(2)
H = 0.5
E = 1.0 / (2.0 * np.sqrt(2.0))   # 1/(2*sqrt(2))

# word -> (after stage 1, after stage 2, final, output)
FOUR_BIT_RUNS = {
    "0000": ((R, 0, R, 0), (H, H, H, H), (1, 0, 0, 0), 1),
    "0001": ((R, 0, R, 0), (H, -H, H, -H), (0, 1, 0, 0), 0),
    "0010": ((R, 0, R, 0), (-H, H, -H, H), (0, -1, 0, 0), 0),
    "0011": ((R, 0, R, 0), (-H, -H, -H, -H), (-1, 0, 0, 0), 1),
    "0100": ((R, 0, -R, 0), (H, H, -H, -H), (0, 0, 1, 0), 0),
    "0101": ((R, 0, -R, 0), (H, -H, -H, H), (0, 0, 0, 1), 0),
    "0110": ((R, 0, -R, 0), (-H, H, H, -H), (0, 0, 0, -1), 0),
    "0111": ((R, 0, -R, 0), (-H, -H, H, H), (0, 0, -1, 0), 0),
    "1000": ((-R, 0, R, 0), (-H, -H, H, H), (0, 0, -1, 0), 0),
    "1001": ((-R, 0, R, 0), (-H, H, H, -H), (0, 0, 0, -1), 0),
    "1010": ((-R, 0, R, 0), (H, -H, -H, H), (0, 0, 0, 1), 0),
    "1011": ((-R, 0, R, 0), (H, H, -H, -H), (0, 0, 1, 0), 0),
    "1100": ((-R, 0, -R, 0), (-H, -H, -H, -H), (-1, 0, 0, 0), 1),
    "1101": ((-R, 0, -R, 0), (-H, H, -H, H), (0, -1, 0, 0), 0),
    "1110": ((-R, 0, -R, 0), (H, -H, H, -H), (0, 1, 0, 0), 0),
    "1111": ((-R, 0, -R, 0), (H, H, H, H), (1, 0, 0, 0), 1),
}

FOUR_BIT_ACCEPTING = {"0000", "0011", "1100", "1111"}

# 4-bit instance, worked out from the construction rule by hand.
FOUR_BIT_U1 = np.array([
    [R, 0, R, 0],
    [0, 1, 0, 0],
    [R, 0, -R, 0],
    [0, 0, 0, 1],
])
FOUR_BIT_U2 = np.array([
    [R, R, 0, 0],
    [R, -R, 0, 0],
    [0, 0, R, R],
    [0, 0, R, -R],
])
FOUR_BIT_Q1_VARS = [1, 0, 2, 0]
FOUR_BIT_Q2_VARS = [3, 4, 3, 4]

# 6-bit instance, written out entry by entry.
SIX_BIT_U1 = np.array([
    [R, 0, 0, 0, R, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [R, 0, 0, 0, -R, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
])
SIX_BIT_U2 = np.array([
    [R, 0, R, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [R, 0, -R, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, R, 0, R, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, R, 0, -R, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
])
SIX_BIT_U3 = np.array([
    [R, R, 0, 0, 0, 0, 0, 0],
    [R, -R, 0, 0, 0, 0, 0, 0],
    [0, 0, R, R, 0, 0, 0, 0],
    [0, 0, R, -R, 0, 0, 0, 0],
    [0, 0, 0, 0, R, R, 0, 0],
    [0, 0, 0, 0, R, -R, 0, 0],
    [0, 0, 0, 0, 0, 0, R, R],
    [0, 0, 0, 0, 0, 0, R, -R],
])
SIX_BIT_Q1_VARS = [1, 0, 0, 0, 2, 0, 0, 0]
SIX_BIT_Q2_VARS = [3, 0, 4, 0, 3, 0, 4, 0]
SIX_BIT_Q3_VARS = [5, 6, 5, 6, 5, 6, 5, 6]

# Single-stage instance: one Hadamard, queries on x1/x2, Hadamard again.
TWO_BIT_RUNS = {
    "00": ((R, R), (1, 0), 1),
    "01": ((R, -R), (0, 1), 0),
    "10": ((-R, R), (0, -1), 0),
    "11": ((-R, -R), (-1, 0), 1),
}


def dense_gram_residual(entries, cols):
    """gram_residual by its definition: B scattered whole, cut to the rows
    the marked columns reach, and one Gram product."""
    r, c, v = (np.ravel(a) for a in entries)
    kept = cols[c] & (v != 0)
    hit = np.bincount(r[kept], minlength=cols.size) > 0
    block = np.zeros((np.count_nonzero(hit), np.count_nonzero(cols)))
    block[(np.cumsum(hit) - 1)[r[kept]], (np.cumsum(cols) - 1)[c[kept]]] = v[kept]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = block.T @ block
        np.fill_diagonal(gram, gram.diagonal() - 1.0)
        return float(np.abs(gram).sum(axis=1).max(initial=0.0))
