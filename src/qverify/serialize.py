"""JSON documents for algorithms and truth-table functions.

Algorithm document, schema version 3::

    {
      "schema_version": 3,
      "n_vars": 6, "t_queries": 3, "dim": 8,
      "start": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
      "stages": [
        {"unitary": [[...K x K row-major...]],
         "query_diagonal": [{"var": 1}, {"fixed": true}, ...]},
        {"unitary": {"rows": [0, 0, ...], "cols": [0, 4, ...],
                     "values": [0.7071067811865475, ...]},
         "query_diagonal": [...]},
        ...
      ],
      "final_unitary": {"kron": [[[0.5, 0.5, 0.5, 0.5], ...],
                                 [[0.7071067811865476, ...], ...]]},
      "labels": [1, 0, 0, 0, 0, 0, 0, 0]
    }

A matrix (a stage "unitary" or "final_unitary") takes one of two forms:
dense rows, or its nonzeros as three flat lists of one length, where
every entry not listed is 0.0 and no (row, col) pair is listed twice. The
writer picks whichever lists fewer numbers: the nonzeros iff
3 * nnz < dim**2, counting -0.0 as a nonzero so that it survives.
"final_unitary" may also take the kron form {"kron": [m1, m2, ...]}: the
Kronecker product m1 (x) m2 (x) ..., m1 the most significant. Each factor
is a square matrix of side at least 2 in either form, a nonzeros factor
with its side as a fourth key "dim", and the sides multiply to "dim". The
kron form does not nest, and stages do not take it.

Each document is written at the lowest version, from 2 up, that holds it:
version 3 only when the final matrix has more than one factor, so any
other document is written byte for byte as version 2. Version 2 lacks the
kron form, and version 1 also the nonzeros form; the loader reads all
three through the same code. It keeps the nonzeros form as model.Nonzeros,
sorted row-major, without scattering it into a dense matrix, and every
final matrix as a model.Kron. Truth-table documents stay at version 1.

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
import math
from pathlib import Path

import numpy as np

from .boolfunc import BooleanFunction
from .limits import MAX_DOC_DIM
from .model import Kron, Nonzeros, QueryAlgorithm, QuerySpec

# The last algorithm version; the loader reads every version up to it.
ALGORITHM_SCHEMA_VERSION = 3
FUNCTION_SCHEMA_VERSION = 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid document: {message}")


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as int.
    return isinstance(value, int) and not isinstance(value, bool)


def _bits(value) -> bool:
    """Whether value is a list of the integers 0 and 1: numpy would read
    true and 1.0 among them as 1."""
    return isinstance(value, list) and set(map(type, value)) <= {int} and set(value) <= {0, 1}


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


def _matrix(value, dim: int, what: str):
    """A document matrix: dense rows as a float64 array, or the nonzeros
    form {"rows", "cols", "values"} as Nonzeros, sorted row-major and
    without the +0.0 entries it may list."""
    if not isinstance(value, dict):
        return _reals(value, what)
    _require("kron" not in value, f"{what} cannot take the kron form")
    _require(set(value) == {"rows", "cols", "values"},
             f"{what} must have exactly the keys 'rows', 'cols' and 'values'")
    rows, cols, values = value["rows"], value["cols"], value["values"]
    _require(all(isinstance(x, list) for x in (rows, cols, values))
             and len(rows) == len(cols) == len(values),
             f"{what} rows, cols and values must be lists of one length")
    r, c = _indices(rows, dim, f"{what} rows"), _indices(cols, dim, f"{what} cols")
    v = _reals(values, f"{what} values")
    _require(v.ndim == 1, f"{what} values must be a flat list")
    keys = r * dim + c
    order = np.argsort(keys, kind="stable")
    _require(not (np.diff(keys[order]) == 0).any(), f"{what} lists an entry twice")
    order = order[Nonzeros.stored(v[order])]
    return Nonzeros(r[order], c[order], v[order])


def _final(value, dim: int):
    """The document's final_unitary: a matrix (see _matrix), or the kron
    form as a Kron of its factors."""
    if not (isinstance(value, dict) and "kron" in value):
        return _matrix(value, dim, "final_unitary")
    _require(set(value) == {"kron"}, "final_unitary must have only the key 'kron'")
    _require(isinstance(value["kron"], list) and value["kron"],
             "final_unitary kron must be a non-empty list of factors")
    factors, dims = [], []
    for i, raw in enumerate(value["kron"], start=1):
        what = f"final_unitary factor {i}"
        if isinstance(raw, dict):
            _require(set(raw) == {"dim", "rows", "cols", "values"},
                     f"{what} must have exactly the keys 'dim', 'rows', 'cols' and 'values'")
            side = raw["dim"]
            _require(_is_int(side) and 2 <= side <= dim, f"{what} dim must be in [2, {dim}]")
            factors.append(_matrix({k: raw[k] for k in ("rows", "cols", "values")}, side, what))
        else:
            factors.append(_reals(raw, what))
            shape = factors[-1].shape
            _require(len(shape) == 2 and shape[0] == shape[1] >= 2,
                     f"{what} must be a square matrix of side at least 2")
            side = shape[0]
        dims.append(side)
    _require(math.prod(dims) == dim, f"final_unitary factor sides must multiply to {dim}")
    return Kron(tuple(factors), tuple(dims))


def _matrix_document(m: Nonzeros, dim: int, sized: bool = False):
    """Dense rows, or the nonzeros when they list fewer numbers, with the
    side as "dim" when `sized`."""
    if 3 * m.values.size >= dim * dim:
        return m.dense(dim).tolist()
    side = {"dim": dim} if sized else {}
    return {**side, "rows": m.rows.tolist(), "cols": m.cols.tolist(),
            "values": m.values.tolist()}


def _final_document(final: Kron):
    """One factor as a matrix, more in the kron form."""
    if len(final.factors) == 1:
        return _matrix_document(final.factors[0], final.dims[0])
    return {"kron": [_matrix_document(f, d, sized=True) for f, d in zip(final.factors, final.dims)]}


def algorithm_to_document(alg: QueryAlgorithm) -> dict:
    stages = []
    for stage in alg.stages:
        diagonal = [{"fixed": True} if v == 0 else {"var": int(v)}
                    for v in stage.query.var_map]
        stages.append({"unitary": _matrix_document(stage.nonzeros, alg.dim),
                       "query_diagonal": diagonal})
    return {
        "schema_version": 2 if len(alg.final.factors) == 1 else 3,
        "n_vars": alg.n_vars,
        "t_queries": alg.t_queries,
        "dim": alg.dim,
        "start": alg.start.tolist(),
        "stages": stages,
        "final_unitary": _final_document(alg.final),
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
    _require(_bits(doc["labels"]), "labels must be a list of the integers 0 and 1")
    return QueryAlgorithm(
        n_vars=doc["n_vars"],
        start=_reals(doc["start"], "start"),
        stages=stages,
        final_unitary=_final(doc["final_unitary"], dim),
        labels=doc["labels"],
    )


def dumps_algorithm(alg: QueryAlgorithm) -> str:
    return json.dumps(algorithm_to_document(alg), indent=2)


def save_algorithm(alg: QueryAlgorithm, path) -> None:
    Path(path).write_text(dumps_algorithm(alg) + "\n", encoding="utf-8")


def _read_document(path):
    """The JSON value in the file at path, or ValueError "invalid document"
    for bytes that are not UTF-8, text that is not JSON, or text nested too
    deeply for json.loads, which raises RecursionError there."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"invalid document: not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid document: not JSON: {exc}") from None
    except RecursionError:
        raise ValueError("invalid document: nested too deeply") from None


def load_algorithm(path) -> QueryAlgorithm:
    return document_to_algorithm(_read_document(path))


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
    _require(_bits(table), "table must be a list of the integers 0 and 1")
    return BooleanFunction.from_table(table)


def load_function(path) -> BooleanFunction:
    return document_to_function(_read_document(path))
