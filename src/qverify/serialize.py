"""JSON documents for algorithms and truth-table functions.

Algorithm document, schema version 1::

    {
      "schema_version": 1,
      "n_vars": 4, "t_queries": 2, "dim": 4,
      "start": [1.0, 0.0, 0.0, 0.0],
      "stages": [
        {"unitary": [[...K x K row-major...]],
         "query_diagonal": [{"var": 1}, {"fixed": true}, ...]},
        ...
      ],
      "final_unitary": [[...]],
      "labels": [1, 0, 0, 0]
    }

Variable indices in documents are 1-based; basis states are positional
(row/column order), indexed from 0. Reals are written in shortest
round-trip form, so dump -> load -> dump is byte-stable and loaded
algorithms run bitwise identically to the originals.

Loading validates structure, dimensions and finite entries but
deliberately not matrix unitarity: a damaged document should load and then lose in `check_exact`
with a concrete counterexample instead of being rejected up front. Whether
the matrices are in fact unitary is reported by the `check` CLI command.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .boolfunc import BooleanFunction
from .model import QueryAlgorithm, QuerySpec

SCHEMA_VERSION = 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid document: {message}")


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as int.
    return isinstance(value, int) and not isinstance(value, bool)


def algorithm_to_document(alg: QueryAlgorithm) -> dict:
    stages = []
    for stage in alg.stages:
        diagonal = [{"fixed": True} if v == 0 else {"var": int(v)}
                    for v in stage.query.var_map]
        stages.append({"unitary": stage.unitary.tolist(), "query_diagonal": diagonal})
    return {
        "schema_version": SCHEMA_VERSION,
        "n_vars": alg.n_vars,
        "t_queries": alg.t_queries,
        "dim": alg.dim,
        "start": alg.start.tolist(),
        "stages": stages,
        "final_unitary": alg.final_unitary.tolist(),
        "labels": alg.labels.tolist(),
    }


def _parse_diagonal(raw, dim: int, stage_no: int) -> QuerySpec:
    _require(isinstance(raw, list) and len(raw) == dim,
             f"stage {stage_no} query_diagonal must list {dim} entries")
    var_map = []
    for pos, entry in enumerate(raw):
        if isinstance(entry, dict) and entry == {"fixed": True}:
            var_map.append(0)
        elif isinstance(entry, dict) and set(entry) == {"var"} and _is_int(entry["var"]):
            _require(entry["var"] >= 1, f"stage {stage_no} slot {pos}: variable index must be >= 1")
            var_map.append(entry["var"])
        else:
            raise ValueError(
                f'invalid document: stage {stage_no} slot {pos} must be '
                f'{{"fixed": true}} or {{"var": k}}, got {entry!r}')
    return QuerySpec(var_map)


def document_to_algorithm(doc: dict) -> QueryAlgorithm:
    _require(isinstance(doc, dict), "top level must be an object")
    _require(doc.get("schema_version") == SCHEMA_VERSION,
             f"unsupported schema_version {doc.get('schema_version')!r}")
    for key in ("n_vars", "t_queries", "dim", "start", "stages", "final_unitary", "labels"):
        _require(key in doc, f"missing key {key!r}")
    for key in ("n_vars", "t_queries", "dim"):
        _require(_is_int(doc[key]), f"{key} must be an integer")
    dim = doc["dim"]
    _require(dim >= 2, "dim must be >= 2")
    _require(isinstance(doc["stages"], list) and len(doc["stages"]) == doc["t_queries"],
             "t_queries must match the number of stages")
    stages = []
    for stage_no, raw in enumerate(doc["stages"], start=1):
        _require(isinstance(raw, dict) and {"unitary", "query_diagonal"} <= set(raw),
                 f"stage {stage_no} must carry 'unitary' and 'query_diagonal'")
        stages.append((np.asarray(raw["unitary"], dtype=np.float64),
                       _parse_diagonal(raw["query_diagonal"], dim, stage_no)))
    return QueryAlgorithm(
        n_vars=doc["n_vars"],
        start=np.asarray(doc["start"], dtype=np.float64),
        stages=stages,
        final_unitary=np.asarray(doc["final_unitary"], dtype=np.float64),
        labels=doc["labels"],
    )


def dumps_algorithm(alg: QueryAlgorithm) -> str:
    return json.dumps(algorithm_to_document(alg), indent=2)


def save_algorithm(alg: QueryAlgorithm, path) -> None:
    Path(path).write_text(dumps_algorithm(alg) + "\n", encoding="utf-8")


def load_algorithm(path) -> QueryAlgorithm:
    return document_to_algorithm(json.loads(Path(path).read_text(encoding="utf-8")))


def function_to_document(f: BooleanFunction) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "arity": f.arity,
        "table": f.values().tolist(),
    }


def document_to_function(doc: dict) -> BooleanFunction:
    _require(isinstance(doc, dict), "top level must be an object")
    _require(doc.get("schema_version") == SCHEMA_VERSION,
             f"unsupported schema_version {doc.get('schema_version')!r}")
    _require(_is_int(doc.get("arity")), "arity must be an integer")
    table = doc.get("table")
    _require(isinstance(table, list) and len(table) == (1 << doc["arity"]),
             f"table must list 2**{doc.get('arity')} bits")
    return BooleanFunction.from_table(table)


def load_function(path) -> BooleanFunction:
    return document_to_function(json.loads(Path(path).read_text(encoding="utf-8")))
