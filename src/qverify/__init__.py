"""qverify: exact quantum query simulation for duplicated-bit codewords.

Builds the N/2-query verifier algorithm for words whose consecutive bit
pairs must be equal, executes it on a small dense state-vector simulator,
checks exactness exhaustively, and contrasts it with the N-query classical
decision-tree baseline.
"""

from .boolfunc import (
    BooleanFunction,
    ClassicalRunReport,
    bit_oracle,
    classical_query_counts,
    classical_verify,
    classical_worst_case,
    sensitivity,
)
from .builder import StagePlan, build_algorithm, build_stage_query, build_stage_unitary, index_set, stage_plan
from .linalg import apply, hadamard_power, is_unitary, tensor
from .model import (
    ComputeResult,
    ExactnessReport,
    QueryAlgorithm,
    QueryEntry,
    QuerySpec,
    RunTrace,
    Stage,
    check_exact,
    compute,
    measure,
    realize_query,
    run,
    run_batch,
)
from .serialize import (
    algorithm_to_document,
    document_to_algorithm,
    dumps_algorithm,
    load_algorithm,
    load_function,
    save_algorithm,
)
from .strings import StringPair, deinterleave, interleave, strings_equal

__version__ = "0.1.0"

# Recorded by the benchmark: every kernel has one numpy implementation.
BACKEND = "numpy"
HAVE_NUMBA = False

__all__ = [
    "BACKEND",
    "HAVE_NUMBA",
    "BooleanFunction",
    "ClassicalRunReport",
    "ComputeResult",
    "ExactnessReport",
    "QueryAlgorithm",
    "QueryEntry",
    "QuerySpec",
    "RunTrace",
    "Stage",
    "StagePlan",
    "StringPair",
    "algorithm_to_document",
    "apply",
    "bit_oracle",
    "build_algorithm",
    "build_stage_query",
    "build_stage_unitary",
    "check_exact",
    "classical_query_counts",
    "classical_verify",
    "classical_worst_case",
    "compute",
    "deinterleave",
    "document_to_algorithm",
    "dumps_algorithm",
    "hadamard_power",
    "index_set",
    "interleave",
    "is_unitary",
    "load_algorithm",
    "load_function",
    "measure",
    "realize_query",
    "run",
    "run_batch",
    "save_algorithm",
    "sensitivity",
    "stage_plan",
    "strings_equal",
    "tensor",
    "__version__",
]
