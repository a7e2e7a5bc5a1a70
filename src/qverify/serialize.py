"""JSON documents for algorithms and truth-table functions.

Algorithm document, schema version 2::

    {
      "schema_version": 2,
      "n_vars": 4, "t_queries": 2, "dim": 4,
      "start": [1.0, 0.0, 0.0, 0.0],
      "stages": [
        {"unitary": [[...K x K row-major...]],
         "query_diagonal": [{"var": 1}, {"fixed": true}, ...]},
        {"unitary": {"rows": [0, 0, ...], "cols": [0, 4, ...],
                     "values": [0.7071067811865475, ...]},
         "query_diagonal": [...]},
        ...
      ],
      "final_unitary": [[...]],
      "labels": [1, 0, 0, 0]
    }

A matrix (a stage "unitary" or "final_unitary") takes one of two forms:
dense rows, or its nonzeros as three flat lists of one length, where
every entry not listed is 0.0 and no (row, col) pair is listed twice. The
writer picks whichever lists fewer numbers: the nonzeros iff
3 * nnz < dim**2, counting -0.0 as a nonzero so that it survives. Version
1 documents, which hold dense rows only, load through the same code.
Truth-table documents stay at version 1.

Variable indices in documents are 1-based; basis states are positional
(row/column order), indexed from 0. Reals are written in shortest
round-trip form, so dump -> load -> dump is byte-stable and loaded
algorithms run bitwise identically to the originals.

Loading validates structure, dimensions and finite entries but
deliberately not matrix unitarity, so a damaged document loads instead of
being rejected up front. Damage that changes some run then loses in
`check_exact` with a concrete counterexample; damage confined to columns
the start state never reaches changes no run and shows only in
`"unitary"`, the unitarity report of the `check` CLI command.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .boolfunc import BooleanFunction
from .limits import MAX_DOC_DIM
from .model import QueryAlgorithm, QuerySpec

# The loader reads every algorithm version up to the one written; version 1
# lacks only the nonzeros form.
ALGORITHM_SCHEMA_VERSION = 2
FUNCTION_SCHEMA_VERSION = 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid document: {message}")


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as int.
    return isinstance(value, int) and not isinstance(value, bool)


def _reals(value, what: str) -> np.ndarray:
    """value as float64 if it nests JSON numbers only: numpy would read "1"
    as 1 and true as 1.0 among numbers, and fail on objects and on integers
    past 64 bits."""
    try:
        a = np.asarray(value)
    except ValueError:
        raise ValueError(f"invalid document: {what} is ragged: lists differ in length") from None
    rows = value if a.ndim == 2 else [value] if a.ndim == 1 else []
    _require(a.dtype.kind in "iuf" and not any(bool in set(map(type, row)) for row in rows),
             f"{what} must hold only numbers")
    return a.astype(np.float64, copy=False)


def _indices(value: list, dim: int, what: str) -> np.ndarray:
    _require(set(map(type, value)) <= {int}, f"{what} must be a flat list of integers")
    _require(not value or (min(value) >= 0 and max(value) < dim),
             f"{what} must lie in [0, {dim})")
    return np.array(value, dtype=np.int64)


def _matrix(value, dim: int, what: str) -> np.ndarray:
    """A document matrix as float64: dense rows, or the nonzeros form
    {"rows", "cols", "values"} scattered into a dim x dim zero matrix."""
    if not isinstance(value, dict):
        return _reals(value, what)
    _require(set(value) == {"rows", "cols", "values"},
             f"{what} must have exactly the keys 'rows', 'cols' and 'values'")
    rows, cols, values = value["rows"], value["cols"], value["values"]
    _require(all(isinstance(x, list) for x in (rows, cols, values))
             and len(rows) == len(cols) == len(values),
             f"{what} rows, cols and values must be lists of one length")
    r, c = _indices(rows, dim, f"{what} rows"), _indices(cols, dim, f"{what} cols")
    v = _reals(values, f"{what} values")
    _require(v.ndim == 1, f"{what} values must be a flat list")
    _require(np.unique(r * dim + c).size == r.size, f"{what} lists an entry twice")
    m = np.zeros((dim, dim))
    m[r, c] = v
    return m


def _matrix_document(m: np.ndarray):
    """Dense rows, or the nonzeros when they list fewer numbers."""
    rows, cols = np.nonzero((m != 0) | np.signbit(m))
    if 3 * rows.size >= m.size:
        return m.tolist()
    return {"rows": rows.tolist(), "cols": cols.tolist(), "values": m[rows, cols].tolist()}


def algorithm_to_document(alg: QueryAlgorithm) -> dict:
    stages = []
    for stage in alg.stages:
        diagonal = [{"fixed": True} if v == 0 else {"var": int(v)}
                    for v in stage.query.var_map]
        stages.append({"unitary": _matrix_document(stage.unitary),
                       "query_diagonal": diagonal})
    return {
        "schema_version": ALGORITHM_SCHEMA_VERSION,
        "n_vars": alg.n_vars,
        "t_queries": alg.t_queries,
        "dim": alg.dim,
        "start": alg.start.tolist(),
        "stages": stages,
        "final_unitary": _matrix_document(alg.final_unitary),
        "labels": alg.labels.tolist(),
    }


def _parse_diagonal(raw, dim: int, n_vars: int, stage_no: int) -> QuerySpec:
    _require(isinstance(raw, list) and len(raw) == dim,
             f"stage {stage_no} query_diagonal must list {dim} entries")
    var_map = []
    for pos, entry in enumerate(raw):
        if isinstance(entry, dict) and entry == {"fixed": True}:
            var_map.append(0)
        elif isinstance(entry, dict) and set(entry) == {"var"} and _is_int(entry["var"]):
            _require(1 <= entry["var"] <= n_vars,
                     f"stage {stage_no} slot {pos}: variable index must be in [1, n_vars]")
            var_map.append(entry["var"])
        else:
            raise ValueError(
                f'invalid document: stage {stage_no} slot {pos} must be '
                f'{{"fixed": true}} or {{"var": k}}, got {entry!r}')
    return QuerySpec(var_map)


def document_to_algorithm(doc: dict) -> QueryAlgorithm:
    _require(isinstance(doc, dict), "top level must be an object")
    version = doc.get("schema_version")
    _require(_is_int(version) and 1 <= version <= ALGORITHM_SCHEMA_VERSION,
             f"unsupported schema_version {version!r}")
    for key in ("n_vars", "t_queries", "dim", "start", "stages", "final_unitary", "labels"):
        _require(key in doc, f"missing key {key!r}")
    for key in ("n_vars", "t_queries", "dim"):
        _require(_is_int(doc[key]), f"{key} must be an integer")
    _require(doc["n_vars"] <= np.iinfo(np.int64).max, "n_vars must fit in int64")
    dim = doc["dim"]
    _require(2 <= dim <= MAX_DOC_DIM, f"dim must be in [2, {MAX_DOC_DIM}]")
    _require(isinstance(doc["stages"], list) and len(doc["stages"]) == doc["t_queries"],
             "t_queries must match the number of stages")
    stages = []
    for stage_no, raw in enumerate(doc["stages"], start=1):
        _require(isinstance(raw, dict) and {"unitary", "query_diagonal"} <= set(raw),
                 f"stage {stage_no} must carry 'unitary' and 'query_diagonal'")
        stages.append((_matrix(raw["unitary"], dim, f"stage {stage_no} unitary"),
                       _parse_diagonal(raw["query_diagonal"], dim, doc["n_vars"], stage_no)))
    labels = doc["labels"]
    # numpy would read true among integers as 1.
    _require(isinstance(labels, list) and all(_is_int(b) and b in (0, 1) for b in labels),
             "labels must be a list of the integers 0 and 1")
    return QueryAlgorithm(
        n_vars=doc["n_vars"],
        start=_reals(doc["start"], "start"),
        stages=stages,
        final_unitary=_matrix(doc["final_unitary"], dim, "final_unitary"),
        labels=labels,
    )


def dumps_algorithm(alg: QueryAlgorithm) -> str:
    return json.dumps(algorithm_to_document(alg), indent=2)


def save_algorithm(alg: QueryAlgorithm, path) -> None:
    Path(path).write_text(dumps_algorithm(alg) + "\n", encoding="utf-8")


def load_algorithm(path) -> QueryAlgorithm:
    return document_to_algorithm(json.loads(Path(path).read_text(encoding="utf-8")))


def function_to_document(f: BooleanFunction) -> dict:
    return {
        "schema_version": FUNCTION_SCHEMA_VERSION,
        "arity": f.arity,
        "table": f.values().tolist(),
    }


def document_to_function(doc: dict) -> BooleanFunction:
    _require(isinstance(doc, dict), "top level must be an object")
    version = doc.get("schema_version")
    _require(_is_int(version) and version == FUNCTION_SCHEMA_VERSION,
             f"unsupported schema_version {version!r}")
    arity, table = doc.get("arity"), doc.get("table")
    _require(_is_int(arity) and arity >= 1, "arity must be a positive integer")
    # Bit lengths first, so that 1 << arity is never built for a huge arity.
    _require(isinstance(table, list) and len(table).bit_length() == arity + 1
             and len(table) == 1 << arity, f"table must list 2**{arity} bits")
    return BooleanFunction.from_table(table)


def load_function(path) -> BooleanFunction:
    return document_to_function(json.loads(Path(path).read_text(encoding="utf-8")))
