"""Seeded document fuzzer: `check --json` keeps its contract on any document.

Three documents are damaged one site at a time: the n = 4 builder document
(dense matrices, schema version 2), the n = 6 one (nonzeros and kron forms,
version 3), and a 4-variable truth-table document, checked through
--function beside the n = 4 document. Each node is replaced by each of the
odd values below, each key of each object dropped, and an unknown key added
to each object; one more document is 200000 nested brackets, read in place
of each. The n = 6 document's nodes are a seeded sample of N6_SAMPLE, to
keep the file near 10 s.

On each, `cli.main` must either exit 0 or 1 with one strict JSON line on
stdout and nothing on stderr, or exit 2 with nothing on stdout and one line
on stderr: an invalid document, or one of the few errors that a valid
document can still cause (ERRORS). No exception may leave main.
"""

import json
import math
import random
import re
import warnings

import pytest

from qverify import BooleanFunction, algorithm_to_document, build_algorithm
from qverify.cli import main
from qverify.serialize import function_to_document

SEED = 7
N6_SAMPLE = 80

# json.dumps refuses to write an integer past Python's 4300-digit limit, so
# this marker is replaced by one in the document's text.
DIGITS = "\0 5000 digits"

ODD_VALUES = [math.nan, math.inf, -math.inf, 1e308, -0.0, 0, -1, 1, 2, 0.5, 1.0,
              2**63, 2**64, -2**63 - 1, DIGITS, "", "1", [], [[]], [0], {},
              {"fixed": True}, True, False, None]

ERRORS = re.compile("error: (invalid document: "
                    "|exhaustive check capped at 24 variables, got "
                    "|arity must be even, got "
                    r"|algorithm has \d+ variables, function has \d+$"
                    "|swept output probabilities overflow: )")


def _text(doc) -> str:
    return json.dumps(doc).replace(json.dumps(DIGITS), "1" * 5000)


def _put(node, path, value):
    """node with the value at path replaced by value, sharing the rest."""
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _put(node[path[0]], path[1:], value)
    return copy


def _nodes(node, path=()):
    """(path, value) of every node, the root first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


def _damaged(doc, paths):
    """Each odd value at each path, each key dropped from and an unknown key
    added to every object, and 200000 nested brackets."""
    for path in paths:
        for value in ODD_VALUES:
            yield _text(_put(doc, path, value))
    for path, node in _nodes(doc):
        if isinstance(node, dict):
            for key in node:
                yield _text(_put(doc, path, {k: v for k, v in node.items() if k != key}))
            yield _text(_put(doc, path, {**node, "unknown": 0}))
    yield "[" * 200_000 + "]" * 200_000


def _refuse(name):
    raise ValueError(f"{name} is not strict JSON")


def _broken_contract(argv, capsys):
    """None if main keeps its contract on argv, else what it did."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    except (Exception, SystemExit) as exc:
        return f"{type(exc).__name__} left main: {str(exc)[:200]}"
    out, err = capsys.readouterr()
    if code in (0, 1) and not err and out.count("\n") == 1:
        try:
            json.loads(out, parse_constant=_refuse)
            return None
        except ValueError as exc:
            return f"exit {code}: {exc}"
    if code == 2 and not out and err.count("\n") == 1 and ERRORS.match(err):
        return None
    return f"exit {code}, stdout {out[:200]!r}, stderr {err[:200]!r}"


def _documents(name):
    doc = function_to_document(BooleanFunction.verify(4)) if name == "table" else \
        algorithm_to_document(build_algorithm(int(name[1:])))
    paths = [path for path, _ in _nodes(doc)]
    if name == "n6":
        paths = random.Random(SEED).sample(paths, N6_SAMPLE)
    return _damaged(doc, paths)


@pytest.mark.parametrize("name", ["n4", "n6", "table"])
def test_every_damaged_document_keeps_the_contract(tmp_path, capsys, name):
    bad, alg = tmp_path / "bad.json", tmp_path / "n4.json"
    alg.write_text(_text(algorithm_to_document(build_algorithm(4))), encoding="utf-8")
    argv = ["check", "--algorithm", str(bad), "--function", "verify", "--json"]
    if name == "table":
        argv[2], argv[4] = str(alg), str(bad)
    broken, count = [], 0
    for text in _documents(name):
        bad.write_text(text, encoding="utf-8")
        if (what := _broken_contract(argv, capsys)) is not None:
            broken.append((what, text[:200]))
        count += 1
    assert count > 400
    assert not broken, (len(broken), count, broken[:3])
