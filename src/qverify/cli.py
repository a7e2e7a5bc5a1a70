"""Command-line front end.

Subcommands: build, run, verify, sensitivity, classical, equal, check.
Exit codes: 0 success/pass, 1 verification failure (or unequal strings),
2 usage or input errors, or running out of memory. `check` exits 0 whenever
no word is wrong, even when the matrices or the start state's norm fail the
unitarity test; it reports that as "unitary": false, which callers must read
too. Human output rounds amplitudes to 6 decimals, --json keeps full precision.

Every command handler computes its result and returns (exit code, JSON
payload, text lines); `main` alone writes it to stdout, the payload as one
strict JSON line under --json and the lines otherwise, and an error as one
line on stderr. Each handler imports the modules it runs, so that
`classical`, `sensitivity` and `equal` start without numpy.

Most of a command's time is process start. So `main` runs numpy's BLAS on
one thread (a second one spins while numpy loads) unless numpy is loaded or
the environment sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS.
Run on the process's own command line (no argv), as by `python -m qverify.cli`
and the `qverify` script, it turns the cyclic garbage collector off, whose
passes over numpy's and a document's objects free nothing; on the way out it
freezes the heap, for the shutdown collections to skip, and turns it back on.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys

from .words import check_word

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fmt_state(state) -> str:
    """A float64 vector's entries to 6 decimals, by one format string."""
    return "  ".join(["% .6f"] * len(state)) % tuple(state.tolist())


def _step_names(t_queries: int) -> list[str]:
    names = ["start"]
    for i in range(1, t_queries + 1):
        names += [f"U{i}", f"Q{i}"]
    names.append("final")
    return names


def _build_text(alg):
    """`build --format text`, one line at a time: each dense matrix is made
    only when its turn comes."""
    yield from (f"n_vars: {alg.n_vars}", f"t_queries: {alg.t_queries}", f"dim: {alg.dim}", "")
    for i, stage in enumerate(alg.stages, start=1):
        yield f"U{i} ="
        yield from ("  " + _fmt_state(row) for row in stage.unitary)
        diag = ", ".join("1" if v == 0 else f"(-1)^x{v}" for v in stage.query)
        yield from (f"Q{i} = diag({diag})", "")
    yield "final ="
    yield from ("  " + _fmt_state(row) for row in alg.final_unitary)
    yield from ("", f"start: {_fmt_state(alg.start)}",
                f"labels: {' '.join(str(b) for b in alg.labels)}")


def _cmd_build(args):
    from .builder import build_algorithm
    from .serialize import dumps_algorithm

    alg = build_algorithm(args.n)
    lines = [dumps_algorithm(alg)] if args.format == "json" else _build_text(alg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        lines = []
    return EXIT_OK, None, lines


def _cmd_run(args):
    from .builder import build_algorithm
    from .model import decide, run

    check_word(args.input)
    alg = build_algorithm(args.n)
    trace = run(alg, args.input)
    result = decide(trace.final, alg.labels)
    payload = {
        "command": "run",
        "n_vars": alg.n_vars,
        "input": args.input,
        **result._asdict(),
        "final_state": trace.final.tolist(),
    }
    names = _step_names(alg.t_queries)
    if args.trace:
        # Generators, so that each output form does only its own work; main
        # dumps the payload with default=list.
        payload["trace"] = ({"step": name, "state": state.tolist()}
                            for name, state in zip(names, trace.states))
        width = max(len(name) for name in names) + 6
        labels = ["start", *(f"after {name}" for name in names[1:-1]), "final"]
        states = (f"{label:<{width}}{_fmt_state(state)}"
                  for label, state in zip(labels, trace.states))
    else:
        states = (f"final:  {_fmt_state(state)}" for state in [trace.final])
    lines = itertools.chain(
        [f"input: {args.input}"], states,
        [f"output: {result.output}  probability: {result.probability:.6f}  "
         f"exact: {'yes' if result.exact else 'no'}"])
    return EXIT_OK, payload, lines


def _report(payload: dict, lines: list[str], report):
    """The exit code, payload and lines of verify and check: the report's
    fields added to the payload, and its result line to the lines."""
    return (EXIT_OK if report.exact else EXIT_FAIL,
            {**payload, "inputs_checked": report.inputs_checked, "exact": report.exact,
             "counterexample": report.counterexample,
             "min_probability": report.min_probability},
            [*lines, "result: exact" if report.exact else
             f"result: FAILED, first counterexample: {report.counterexample}"])


def _cmd_verify(args):
    from .boolfunc import BooleanFunction
    from .builder import build_algorithm
    from .model import check_exact

    alg = build_algorithm(args.n)
    report = check_exact(alg, BooleanFunction.verify(args.n))
    return _report({"command": "verify", "n_vars": args.n, "t_queries": alg.t_queries},
                   [f"inputs tested: {report.inputs_checked}",
                    f"queries per run: {alg.t_queries}",
                    f"min correct-output probability: {report.min_probability!r}"], report)


def _cmd_sensitivity(args):
    from .boolfunc import BooleanFunction, sensitivity

    value, witness = sensitivity(BooleanFunction.verify(args.n))
    return (EXIT_OK,
            {"command": "sensitivity", "n_vars": args.n, "sensitivity": value,
             "witness": witness},
            [f"sensitivity: {value}", f"witness: {witness}"])


def _cmd_classical(args):
    from .classical import bit_oracle, classical_verify

    check_word(args.input, args.n)
    report = classical_verify(bit_oracle(args.input), args.n)
    payload = {
        "command": "classical",
        "n_vars": args.n,
        "input": args.input,
        "output": report.output,
        "queries_used": report.queries_used,
        "query_sequence": list(report.query_sequence),
    }
    return EXIT_OK, payload, [
        f"output: {report.output}",
        f"queries used: {report.queries_used}",
        f"query order: {' '.join('x%d' % k for k in report.query_sequence)}",
    ]


def _cmd_equal(args):
    from .strings import StringPair, interleave, strings_equal

    pair = StringPair(y=args.y, z=args.z)
    equal = strings_equal(pair)
    return (EXIT_OK if equal else EXIT_FAIL,
            {"command": "equal", "y": pair.y, "z": pair.z, "word": interleave(pair),
             "n_vars": 2 * pair.length, "equal": equal},
            ["equal" if equal else "not equal"])


def _cmd_check(args):
    from .boolfunc import BooleanFunction
    from .model import check_exact
    from .serialize import load_algorithm, load_function

    alg = load_algorithm(args.algorithm)
    if args.function == "verify":
        f = BooleanFunction.verify(alg.n_vars)
    else:
        f = load_function(args.function)
    unitary = alg.unitary_within()
    report = check_exact(alg, f)
    payload = {"command": "check", "algorithm": args.algorithm, "function": args.function,
               "n_vars": alg.n_vars, "t_queries": alg.t_queries, "unitary": unitary}
    return _report(payload, [f"matrices unitary: {'yes' if unitary else 'NO'}",
                             f"inputs tested: {report.inputs_checked}"], report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qverify",
        description="Simulate exact quantum query verification of duplicated-bit codewords.")
    sub = parser.add_subparsers(dest="command", required=True)
    n_bits = argparse.ArgumentParser(add_help=False)
    n_bits.add_argument("--n", type=int, required=True, help="number of word bits (even)")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="print the result as one JSON line")

    p = sub.add_parser("build", parents=[n_bits],
                       help="construct an algorithm and write its JSON document")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("run", parents=[n_bits, as_json], help="run the built algorithm on one word")
    p.add_argument("--input", required=True, help="input word, e.g. 1100")
    p.add_argument("--trace", action="store_true", help="print the state after every step")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", parents=[n_bits, as_json],
                       help="exhaustively check exactness over all words")
    p.add_argument("--parallel", action="store_true",
                   help="accepted for compatibility; has no effect, the sweep runs in one process")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sensitivity", parents=[n_bits, as_json],
                       help="sensitivity of the n-bit verifier function")
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("classical", parents=[n_bits, as_json],
                       help="run the classical decision-tree verifier")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("equal", parents=[as_json], help="test two binary strings for equality")
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("check", parents=[as_json],
                       help="check a stored algorithm against a function",
                       description="Exits 0 when no word is wrong, even if the matrices or "
                                   "the start's norm fail the unitarity test (\"unitary\": false).")
    p.add_argument("--algorithm", required=True, help="path to an algorithm document")
    p.add_argument("--function", default="verify",
                   help="'verify' or a path to a truth-table document")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules and not any(name in os.environ for name in _THREAD_ENV):
        os.environ.update(dict.fromkeys(_THREAD_ENV, "1"))
    if own := argv is None:
        gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            code, payload, lines = args.func(args)
            if getattr(args, "json", False):
                lines = [json.dumps(payload, default=list, allow_nan=False)]
            for line in lines:
                print(line)
        except (ValueError, OSError, MemoryError) as exc:
            if isinstance(exc, MemoryError):  # numpy's names its allocation; MemoryError() is empty
                exc = f"out of memory: {str(exc) or 'an allocation failed'}"
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        return code
    finally:
        if own:
            gc.freeze()
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
