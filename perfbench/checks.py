"""Output checks for benchmark ops.

Every op is judged against expectations the benchmark derives from the
seed alone. A CLI command fails its check on a wrong exit code, a Python
traceback on stderr, anything but exactly one line of strict JSON on stdout
(`NaN` and `Infinity` are rejected), or a field that differs from its
expected value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class AtLeast:
    """Expectation on a finite number: value >= bound."""

    bound: float

    def matches(self, value) -> bool:
        return _is_number(value) and value >= self.bound


@dataclass(frozen=True)
class AtMost:
    """Expectation on a finite number: value <= bound."""

    bound: float

    def matches(self, value) -> bool:
        return _is_number(value) and value <= self.bound


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _reject_constant(token: str):
    raise ValueError(f"non-strict JSON constant {token}")


def strict_loads(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def mismatches(payload: dict, expected: dict) -> list[str]:
    """One message per expected key whose value in payload is wrong."""
    problems = []
    for key, want in expected.items():
        if key not in payload:
            problems.append(f"missing key {key!r}")
            continue
        got = payload[key]
        ok = want.matches(got) if isinstance(want, (AtLeast, AtMost)) \
            else (type(got) is type(want) and got == want)
        if not ok:
            problems.append(f"{key}: got {got!r}, expected {want!r}")
    return problems


def check_cli(returncode: int, stdout: str, stderr: str, expected_exit: int,
              expected: dict) -> list[str]:
    """Problems with one `qverify ... --json` invocation; empty when it passed."""
    problems = []
    if returncode != expected_exit:
        problems.append(f"exit code {returncode}, expected {expected_exit}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    lines = stdout.splitlines()
    if len(lines) != 1:
        problems.append(f"expected one JSON line on stdout, got {len(lines)}")
        return problems
    try:
        payload = strict_loads(lines[0])
    except ValueError as exc:
        problems.append(f"stdout is not strict JSON: {exc}")
        return problems
    if not isinstance(payload, dict):
        problems.append("stdout JSON is not an object")
        return problems
    return problems + mismatches(payload, expected)


def self_test() -> None:
    """Feed the checker known-bad outputs and raise unless each is caught."""
    good = '{"exact": false, "counterexample": "0110", "min_probability": 0.0}'
    expect = {"exact": False, "counterexample": "0110", "min_probability": AtMost(1e-9)}
    cases = {
        "matching output": (check_cli(1, good, "", 1, expect), False),
        "wrong expectation": (
            check_cli(1, good, "", 1, {**expect, "counterexample": "0111"}), True),
        "wrong exit code": (check_cli(0, good, "", 1, expect), True),
        "traceback": (check_cli(1, good, "Traceback (most recent call last):\n  x\nKeyError: 1",
                                1, expect), True),
        "NaN in JSON": (check_cli(1, good.replace("0.0", "NaN"), "", 1, expect), True),
        "two JSON lines": (check_cli(1, good + "\n" + good, "", 1, expect), True),
        "bool for int": (mismatches({"queries_used": True}, {"queries_used": 1}), True),
    }
    for name, (problems, should_fail) in cases.items():
        if bool(problems) != should_fail:
            raise AssertionError(f"checker self-test failed on {name!r}: {problems}")
