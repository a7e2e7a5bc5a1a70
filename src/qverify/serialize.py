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

Loading parses, and the constructors judge. The loader checks what JSON
can get wrong: value types, matrix forms, keys (each object holds exactly
its own), the fields only a document has and its int64 bounds. Every
structural rule is QueryAlgorithm's or BooleanFunction's. Every error, the
decoder's included, is raised as ValueError("invalid document: ...") by
_document_errors, and a file that cannot be read as its OSError. Neither
unitarity nor the start's norm is checked, so a damaged document loads;
damage that moves probability onto a wrong output, or adds it to the right
one, loses in `check_exact` with a counterexample, and damage confined to
columns the start never reaches shows only in `check`'s `"unitary"`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .boolfunc import BooleanFunction
from .limits import MAX_DOC_DIM
from .model import Kron, Nonzeros, QueryAlgorithm

# The last algorithm version; the loader reads every version up to it.
ALGORITHM_SCHEMA_VERSION = 3
FUNCTION_SCHEMA_VERSION = 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@contextmanager
def _document_errors():
    """Each ValueError (the decoder's, the loader's or a constructor's) and
    json.loads' RecursionError on deep nesting, as "invalid document: ..."."""
    try:
        yield
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid document: {exc}") from None


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as int.
    return isinstance(value, int) and not isinstance(value, bool)


def _header(doc, last: int, keys: tuple) -> list:
    """The values of `keys` in a document holding exactly them and a schema_version in [1, last]."""
    _require(isinstance(doc, dict), "top level must be an object")
    version = doc.get("schema_version")
    _require(_is_int(version) and 1 <= version <= last, f"unsupported schema_version {version!r}")
    return _fields(doc, ("schema_version", *keys), "top level")[1:]


def _fields(value, keys: tuple, what: str) -> list:
    """The values of `keys`, in order, of an object that holds exactly those keys."""
    names = " and ".join(", ".join(map(repr, keys)).rsplit(", ", 1))
    _require(isinstance(value, dict) and value.keys() == set(keys),
             f"{what} must have exactly the key{'s' * (len(keys) > 1)} {names}")
    return [value[key] for key in keys]


def _bits(value, what: str) -> np.ndarray:
    """value as uint8 if it is a list of the integers 0 and 1: numpy would
    read true and 1.0 among them as 1."""
    try:
        data = bytes(value) if isinstance(value, list) and set(map(type, value)) <= {int} else None
    except ValueError:  # an integer outside range(256)
        data = None
    _require(data is not None and not data.translate(None, b"\0\1"),
             f"{what} must be a list of the integers 0 and 1")
    return np.frombuffer(data, np.uint8)


def _reals(value, what: str) -> np.ndarray:
    """value as float64 if it nests JSON numbers only: numpy would read "1"
    as 1 and true as 1.0 among numbers, and fail on objects and on integers
    past 64 bits."""
    try:
        a = np.asarray(value)
    except ValueError:
        raise ValueError(f"{what} is ragged: lists differ in length") from None
    rows = value if a.ndim == 2 else [value] if a.ndim == 1 else []
    _require(a.dtype.kind in "iuf" and not any(bool in set(map(type, row)) for row in rows),
             f"{what} must hold only numbers")
    return a.astype(np.float64, copy=False)


def _indices(value: list, dim: int, what: str) -> np.ndarray:
    _require(set(map(type, value)) <= {int}, f"{what} must be a flat list of integers")
    # Keeps the int64 conversion below from raising OverflowError.
    _require(not value or (min(value) >= 0 and max(value) < dim),
             f"{what} must lie in [0, {dim})")
    return np.array(value, dtype=np.int64)


def _matrix(value, dim: int, what: str):
    """A document matrix: dense rows as a float64 array, or the nonzeros
    form {"rows", "cols", "values"} as Nonzeros, sorted row-major; the
    model drops the +0.0 entries it may list."""
    if not isinstance(value, dict):
        return _reals(value, what)
    _require("kron" not in value, f"{what} cannot take the kron form")
    return _nonzeros(*_fields(value, ("rows", "cols", "values"), what), dim, what)


def _nonzeros(rows, cols, values, dim: int, what: str) -> Nonzeros:
    _require(all(isinstance(x, list) for x in (rows, cols, values))
             and len(rows) == len(cols) == len(values),
             f"{what} rows, cols and values must be lists of one length")
    r, c = _indices(rows, dim, f"{what} rows"), _indices(cols, dim, f"{what} cols")
    v = _reals(values, f"{what} values")
    _require(v.ndim == 1, f"{what} values must be a flat list")
    order = np.argsort(r * dim + c, kind="stable")
    return Nonzeros(r[order], c[order], v[order])


def _final(value, dim: int):
    """The document's final_unitary: a matrix (see _matrix), or the kron
    form as a Kron of its factors."""
    if not (isinstance(value, dict) and "kron" in value):
        return _matrix(value, dim, "final_unitary")
    (kron,) = _fields(value, ("kron",), "final_unitary")
    _require(isinstance(kron, list), "final_unitary kron must be a list of factors")
    factors, dims = [], []
    for i, raw in enumerate(kron, start=1):
        what = f"final_unitary factor {i}"
        if isinstance(raw, dict):
            side, *entries = _fields(raw, ("dim", "rows", "cols", "values"), what)
            # Keeps _nonzeros' row-major keys, r * side + c, within int64.
            _require(_is_int(side) and 0 <= side <= dim,
                     f"{what} dim must be an integer in [0, {dim}]")
            factors.append(_nonzeros(*entries, side, what))
        else:
            factors.append(_reals(raw, what))
            side = factors[-1].shape[-1] if factors[-1].ndim else 0  # the model judges its shape
        dims.append(side)
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
                    for v in stage.query]
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


def _stage(raw, dim: int, n_vars: int, stage_no: int) -> tuple:
    """A stage as the constructor takes it: its matrix and its int64 var_map."""
    matrix, diagonal = _fields(raw, ("unitary", "query_diagonal"), f"stage {stage_no}")
    unitary = _matrix(matrix, dim, f"stage {stage_no} unitary")
    _require(isinstance(diagonal, list), f"stage {stage_no} query_diagonal must be a list")
    var_map = []
    for pos, entry in enumerate(diagonal):
        if isinstance(entry, dict) and set(entry) == {"fixed"} and entry["fixed"] is True:
            var_map.append(0)
        elif isinstance(entry, dict) and set(entry) == {"var"} and _is_int(entry["var"]):
            # As n_vars fits int64, keeps np.array below from raising OverflowError.
            _require(1 <= entry["var"] <= n_vars,
                     f"stage {stage_no} slot {pos}: variable index must be in [1, n_vars]")
            var_map.append(entry["var"])
        else:
            raise ValueError(f'stage {stage_no} slot {pos} must be '
                             f'{{"fixed": true}} or {{"var": k}}, got {entry!r}')
    return unitary, np.array(var_map, dtype=np.int64)


def document_to_algorithm(doc: dict) -> QueryAlgorithm:
    with _document_errors():
        n_vars, t_queries, dim, start, stages, final, labels = _header(
            doc, ALGORITHM_SCHEMA_VERSION,
            ("n_vars", "t_queries", "dim", "start", "stages", "final_unitary", "labels"))
        for key, value in (("n_vars", n_vars), ("t_queries", t_queries), ("dim", dim)):
            _require(_is_int(value), f"{key} must be an integer")
        # With _stage's var <= n_vars, keeps every var_map within int64.
        _require(n_vars <= np.iinfo(np.int64).max, "n_vars must fit in int64")
        _require(2 <= dim <= MAX_DOC_DIM, f"dim must be in [2, {MAX_DOC_DIM}]")
        start = _reals(start, "start")
        _require(start.ndim != 1 or start.size == dim, f"start must list {dim} entries")
        _require(isinstance(stages, list) and len(stages) == t_queries,
                 "t_queries must match the number of stages")
        # Parsed as the constructor takes them, after it has judged n_vars and start.
        stages = (_stage(raw, dim, n_vars, no) for no, raw in enumerate(stages, start=1))
        return QueryAlgorithm(n_vars, start, stages, _final(final, dim), _bits(labels, "labels"))


def dumps_algorithm(alg: QueryAlgorithm) -> str:
    return json.dumps(algorithm_to_document(alg))


def save_algorithm(alg: QueryAlgorithm, path) -> None:
    Path(path).write_text(dumps_algorithm(alg) + "\n", encoding="utf-8")


def _read_document(path):
    """The JSON value in the file at path; a decoding error is an invalid document."""
    with _document_errors():
        return json.loads(Path(path).read_text(encoding="utf-8"))


def load_algorithm(path) -> QueryAlgorithm:
    return document_to_algorithm(_read_document(path))


def function_to_document(f: BooleanFunction) -> dict:
    return {
        "schema_version": FUNCTION_SCHEMA_VERSION,
        "arity": f.arity,
        "table": f.values().tolist(),
    }


def document_to_function(doc: dict) -> BooleanFunction:
    with _document_errors():
        arity, table = _header(doc, FUNCTION_SCHEMA_VERSION, ("arity", "table"))
        return BooleanFunction(arity, _bits(table, "table"))


def load_function(path) -> BooleanFunction:
    return document_to_function(_read_document(path))
