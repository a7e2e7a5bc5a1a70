"""Command-line front end.

Subcommands: build, run, verify, sensitivity, classical, equal, check.
Exit codes: 0 success/pass, 1 verification failure (or unequal strings),
2 usage or input errors. `check` exits 0 whenever no word is wrong, even
when the matrices fail the unitarity test; it reports that as "unitary":
false, which callers must read too. Human output rounds amplitudes to 6
decimals; --json emits one machine-readable line at full precision.

Each command imports the modules it runs inside its handler, so that
`classical` starts without numpy.
"""

from __future__ import annotations

import argparse
import json
import sys

from .words import check_word

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _fmt_state(state) -> str:
    return "  ".join(f"{x: .6f}" for x in state)


def _step_names(t_queries: int) -> list[str]:
    names = ["start"]
    for i in range(1, t_queries + 1):
        names += [f"U{i}", f"Q{i}"]
    names.append("final")
    return names


def _cmd_build(args) -> int:
    from .builder import build_algorithm
    from .serialize import dumps_algorithm

    alg = build_algorithm(args.n)
    if args.format == "json":
        text = dumps_algorithm(alg) + "\n"
    else:
        lines = [f"n_vars: {alg.n_vars}", f"t_queries: {alg.t_queries}", f"dim: {alg.dim}", ""]
        for i, stage in enumerate(alg.stages, start=1):
            lines.append(f"U{i} =")
            lines += ["  " + _fmt_state(row) for row in stage.unitary]
            diag = ", ".join("1" if v == 0 else f"(-1)^x{v}" for v in stage.query.var_map)
            lines.append(f"Q{i} = diag({diag})")
            lines.append("")
        lines.append("final =")
        lines += ["  " + _fmt_state(row) for row in alg.final_unitary]
        lines.append("")
        lines.append(f"start: {_fmt_state(alg.start)}")
        lines.append(f"labels: {' '.join(str(b) for b in alg.labels)}")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_run(args) -> int:
    from .builder import build_algorithm
    from .model import decide, run

    check_word(args.input)
    alg = build_algorithm(args.n)
    trace = run(alg, args.input)
    result = decide(trace.final, alg.labels)
    if args.json:
        payload = {
            "command": "run",
            "n_vars": alg.n_vars,
            "input": args.input,
            "output": result.output,
            "probability": result.probability,
            "exact": result.exact,
            "p0": result.p0,
            "p1": result.p1,
            "final_state": trace.final.tolist(),
        }
        if args.trace:
            payload["trace"] = [
                {"step": name, "state": state.tolist()}
                for name, state in zip(_step_names(alg.t_queries), trace.states)
            ]
        _emit(payload)
        return EXIT_OK
    print(f"input: {args.input}")
    if args.trace:
        width = max(len(n) for n in _step_names(alg.t_queries)) + 6
        for name, state in zip(_step_names(alg.t_queries), trace.states):
            label = name if name in ("start", "final") else f"after {name}"
            print(f"{label:<{width}}{_fmt_state(state)}")
    else:
        print(f"final:  {_fmt_state(trace.final)}")
    print(f"output: {result.output}  probability: {result.probability:.6f}  "
          f"exact: {'yes' if result.exact else 'no'}")
    return EXIT_OK


def _report(args, payload: dict, lines: list[str], report) -> int:
    """Finish verify and check: the payload plus the report's fields as one
    JSON line, or the lines plus the result line; the exit code."""
    if args.json:
        _emit({**payload, "inputs_checked": report.inputs_checked, "exact": report.exact,
               "counterexample": report.counterexample,
               "min_probability": report.min_probability})
    else:
        print("\n".join(lines))
        print("result: exact" if report.exact else
              f"result: FAILED, first counterexample: {report.counterexample}")
    return EXIT_OK if report.exact else EXIT_FAIL


def _cmd_verify(args) -> int:
    from .boolfunc import BooleanFunction
    from .builder import build_algorithm
    from .model import check_exact

    alg = build_algorithm(args.n)
    report = check_exact(alg, BooleanFunction.verify(args.n))
    return _report(args, {"command": "verify", "n_vars": args.n, "t_queries": alg.t_queries},
                   [f"inputs tested: {report.inputs_checked}",
                    f"queries per run: {alg.t_queries}",
                    f"min correct-output probability: {report.min_probability!r}"], report)


def _cmd_sensitivity(args) -> int:
    from .boolfunc import BooleanFunction, sensitivity

    value, witness = sensitivity(BooleanFunction.verify(args.n))
    if args.json:
        _emit({"command": "sensitivity", "n_vars": args.n, "sensitivity": value,
               "witness": witness})
    else:
        print(f"sensitivity: {value}")
        print(f"witness: {witness}")
    return EXIT_OK


def _cmd_classical(args) -> int:
    from .classical import bit_oracle, classical_verify

    check_word(args.input, args.n)
    report = classical_verify(bit_oracle(args.input), args.n)
    if args.json:
        _emit({
            "command": "classical",
            "n_vars": args.n,
            "input": args.input,
            "output": report.output,
            "queries_used": report.queries_used,
            "query_sequence": list(report.query_sequence),
        })
    else:
        print(f"output: {report.output}")
        print(f"queries used: {report.queries_used}")
        print(f"query order: {' '.join('x%d' % k for k in report.query_sequence)}")
    return EXIT_OK


def _cmd_equal(args) -> int:
    from .strings import StringPair, interleave, strings_equal

    pair = StringPair(y=args.y, z=args.z)
    equal = strings_equal(pair)
    if args.json:
        _emit({"command": "equal", "y": pair.y, "z": pair.z, "word": interleave(pair),
               "n_vars": 2 * pair.length, "equal": equal})
    else:
        print("equal" if equal else "not equal")
    return EXIT_OK if equal else EXIT_FAIL


def _cmd_check(args) -> int:
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
    return _report(args, payload, [f"matrices unitary: {'yes' if unitary else 'NO'}",
                                   f"inputs tested: {report.inputs_checked}"], report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qverify",
        description="Simulate exact quantum query verification of duplicated-bit codewords.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct an algorithm and write its JSON document")
    p.add_argument("--n", type=int, required=True, help="number of word bits (even)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("run", help="run the built algorithm on one word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", required=True, help="input word, e.g. 1100")
    p.add_argument("--trace", action="store_true", help="print the state after every step")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="exhaustively check exactness over all words")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--parallel", action="store_true",
                   help="accepted for compatibility; has no effect, the sweep runs in one process")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sensitivity", help="sensitivity of the n-bit verifier function")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("classical", help="run the classical decision-tree verifier")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("equal", help="test two binary strings for equality")
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("check", help="check a stored algorithm against a function",
                       description="Exits 0 when no word is wrong, even if the matrices fail "
                                   "the unitarity test (\"unitary\": false).")
    p.add_argument("--algorithm", required=True, help="path to an algorithm document")
    p.add_argument("--function", default="verify",
                   help="'verify' or a path to a truth-table document")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
