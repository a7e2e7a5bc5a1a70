"""qverify: exact quantum query simulation for duplicated-bit codewords.

Builds the N/2-query verifier algorithm for words whose consecutive bit
pairs must be equal, executes it on a small state-vector simulator,
checks exactness exhaustively, and contrasts it with the N-query classical
decision-tree baseline.

Public names are resolved lazily (PEP 562): `import qverify` loads none of
its modules, and the first use of a name imports only the module that
defines it. So code that touches only the decision tree, or the
sensitivity of the built-in verifier, never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# Recorded by the benchmark: every kernel has one numpy implementation.
BACKEND = "numpy"
HAVE_NUMBA = False

_EXPORTS = {
    "boolfunc": ("BooleanFunction", "classical_query_counts", "classical_worst_case",
                 "sensitivity"),
    "builder": ("build_algorithm", "build_stage_query", "build_stage_unitary", "hadamard_power",
                "index_set"),
    "classical": ("ClassicalRunReport", "bit_oracle", "classical_verify"),
    "model": ("ComputeResult", "ExactnessReport", "Kron", "Nonzeros", "QueryAlgorithm",
              "RunTrace", "Stage", "check_exact", "compute", "is_unitary", "measure",
              "realize_query", "run", "run_batch"),
    "serialize": ("algorithm_to_document", "document_to_algorithm", "dumps_algorithm",
                  "load_algorithm", "load_function", "save_algorithm"),
    "strings": ("StringPair", "interleave", "strings_equal"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "BACKEND", "HAVE_NUMBA", "__version__"])


def __getattr__(name: str):
    # An AttributeError for names outside the map keeps hasattr honest and
    # lets `from qverify import <submodule>` fall back to importing it.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
