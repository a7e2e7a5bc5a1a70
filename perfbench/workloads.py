"""The benchmark workloads.

Each workload generates its inputs from the seed in `setup`, runs one op
per `op` call and judges it against expectations the benchmark derives from
the seed alone, never from the program under test. `traced_op` runs the
same op inside spans, then replays every CLI command in-process as the
public calls that command makes and calls the `_kernels` functions directly
on the same inputs, so that the op's wall time splits into layer self times
(see tracing.py). `kernel_bench` times the kernels on a ladder of sizes and
compares each with the dense `model.run` reference.

BENCHMARK.json lists check-doc16 and separation-n18 and says why each was
chosen. There is no in-process per-word workload: on a shared 2-vCPU KVM
guest such sub-millisecond ops moved between 0.40 and 0.75 ms with host
speed phases lasting minutes, a spread over ten runs wider than any allowed
bound. The per-word paths (`strings_equal`, `classical_verify`, `pair_run`,
`model.compute`, `model.run`) are timed in separation-n18's traced run.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import qverify
from qverify import _kernels
from qverify.model import EXACT_TOL, _chunk_grid, _sweep_arrays

from checks import AtLeast, AtMost, check_cli
from tracing import PARENT, median

CLI_TIMEOUT_S = 150
REF_TOL = 1e-12
# The pool size `qverify verify --parallel` asks for.
VERIFY_PARALLEL_WORKERS = os.cpu_count()
# Kernel passes timed around each replayed check_exact (see check_exact_between).
KERNEL_PASSES = 2
# Words per size of the pair_run ladder, as in benchmarks/bench_sweep.py.
PAIR_RUN_WORDS = 2000


# ---------------------------------------------------------------------------
# references the benchmark computes itself
# ---------------------------------------------------------------------------


def word_of(index: int, n: int) -> str:
    return format(index, f"0{n}b")


def codeword_values(n: int) -> np.ndarray:
    """Verifier truth table of all n-bit words: 1 iff every pair is equal."""
    ints = np.arange(1 << n, dtype=np.int64)
    pairs = (ints[:, None] >> (n - 2 - 2 * np.arange(n // 2))[None, :]) & 3
    return ((pairs == 0) | (pairs == 3)).all(axis=1).astype(np.uint8)


def random_codeword(rng: random.Random, n: int) -> str:
    return "".join(2 * rng.choice("01") for _ in range(n // 2))


def flip(word: str, k: int) -> str:
    """The word with its 0-based bit k flipped."""
    return word[:k] + ("1" if word[k] == "0" else "0") + word[k + 1:]


def dense_reference(alg, expected, first: int, min_prob: float, seed: int,
                    kernel_on_range) -> list[str]:
    """Compare a full-range sweep result, and single-word sweeps, with `model.run`.

    Every word is run densely up to n = 12, a seeded sample of 256 above.
    """
    n = alg.n_vars
    words = list(range(1 << n)) if n <= 12 else sorted(random.Random(seed).sample(range(1 << n), 256))
    ref = {}
    for w in words:
        final = qverify.run(alg, word_of(w, n)).final
        ref[w] = float((final * final)[alg.labels == expected[w]].sum())
    problems = []
    if first != -1:
        problems.append(f"n={n}: kernel reports counterexample {first} on an exact algorithm")
    ref_min = min(ref.values())
    if min_prob > ref_min + REF_TOL or (n <= 12 and abs(min_prob - ref_min) > REF_TOL):
        problems.append(f"n={n}: kernel min_probability {min_prob!r}, dense run {ref_min!r}")
    for w in words[:64]:
        got_first, got = kernel_on_range(w, w + 1)
        if got_first != -1 or abs(got - ref[w]) > REF_TOL:
            problems.append(f"n={n} word {w}: kernel {got!r}, dense run {ref[w]!r}")
    return problems


def pair_run_agrees(n: int, words: list[int], finals) -> list[str]:
    """pair_run must accept exactly the codewords and, up to n = 20, match
    the dense `model.run` final state on the first 16 words."""
    problems = []
    for w, final in zip(words, finals):
        bits = word_of(w, n)
        value = bits[0::2] == bits[1::2]
        p1 = final[0] * final[0]
        if (p1 > 0.5) != value:
            problems.append(f"pair_run n={n} word {w}: p1 {p1!r}, verifier {value}")
    if n <= 20:
        alg = qverify.build_algorithm(n)
        for w, final in zip(words[:16], finals):
            diff = float(np.abs(final - qverify.run(alg, word_of(w, n)).final).max())
            if diff > REF_TOL:
                problems.append(f"pair_run n={n} word {w} differs from model.run by {diff!r}")
    return problems[:5]


def kernel_agrees(kernel: str, results, report) -> list[str]:
    """Chunked kernel results must reproduce the library's exactness report."""
    fails = [first for first, _ in results if first >= 0]
    min_prob = min(p for _, p in results)
    counterexample = word_of(min(fails), report.inputs_checked.bit_length() - 1) if fails else None
    if counterexample != report.counterexample or abs(min_prob - report.min_probability) > REF_TOL:
        return [f"{kernel} gives ({counterexample}, {min_prob!r}), check_exact gives "
                f"({report.counterexample}, {report.min_probability!r})"]
    return []


def run_cli(root: Path, argv: list[str]) -> tuple[int, str, str]:
    """Run `python -m qverify.cli argv` on the checkout's sources and wait for
    it; on a timeout kill its whole process group."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "qverify.cli", *argv], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nbenchmark: killed after {CLI_TIMEOUT_S} s"
    return proc.returncode, out, err


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """An op is a fixed sequence of `qverify ... --json` commands."""

    name = ""
    words_per_op = 1
    setups = 1

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root, self.work, self.seed = root, work, seed
        self.tracer = None
        self.replay_s: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def kernel_bench(self) -> tuple[dict, list[str]]:
        raise NotImplementedError

    def layer_metrics(self, summary) -> dict:
        """The workload's per-layer metrics: {name: (value, unit)}."""
        raise NotImplementedError

    def kernel_words_per_s(self, summary) -> float:
        """Words per second of the op's main kernel on the op's own inputs."""
        raise NotImplementedError

    def _span(self, name, parent=None, scale=1.0):
        return self.tracer.span(name, parent, scale)

    def commands(self, i: int, wrong: bool) -> list[tuple[list[str], int, dict]]:
        """(argv, expected exit code, expected JSON fields) per command."""
        raise NotImplementedError

    def replay(self, argv: list[str], parent: int) -> list[str]:
        """Make the command's public calls in-process, as spans under `parent`."""
        raise NotImplementedError

    def check_exact_between(self, parent: int, check, kernel_pass, workers: int = 1):
        """Time `check()` as the `model.check_exact` span between KERNEL_PASSES
        passes of `kernel_pass(parent, scale)` over the same words, half of
        them before and half after.

        Every pass becomes the span's child at scale 1 / (KERNEL_PASSES *
        workers): their mean, spread over the pool's workers. Machine-speed
        drift between the separate timings then cancels to first order in
        the self time. Returns the report and the list of the passes' results.
        """
        scale = 1.0 / (KERNEL_PASSES * workers)
        first_index = len(self.tracer.spans)
        passes = [kernel_pass(None, scale) for _ in range(KERNEL_PASSES // 2)]
        with self._span("model.check_exact", parent) as ce:
            report = check()
        for span in self.tracer.spans[first_index:ce]:
            span[PARENT] = ce
        passes += [kernel_pass(ce, scale) for _ in range(KERNEL_PASSES - KERNEL_PASSES // 2)]
        return report, passes

    def op(self, i: int, wrong: bool = False) -> list[str]:
        """Run op i; return its problems. `wrong` corrupts one expectation."""
        problems = []
        for argv, code, expected in self.commands(i, wrong):
            problems += check_cli(*run_cli(self.root, argv), code, expected)
        return problems

    def traced_op(self, i: int, wrong: bool = False) -> list[str]:
        """`op` inside spans of op id i, then the replays and kernel calls.

        The `op` span covers only the CLI commands, run as in `op`; the
        replays run after it closes and their time per op is kept in
        `replay_s`. So traced minus untraced op time shows what the spans
        themselves add, and `replay_s` what the traced run adds on top."""
        problems, spans = [], []
        commands = self.commands(i, wrong)
        self.tracer.op = i
        with self._span("op"):
            for argv, code, expected in commands:
                with self._span("cli." + argv[0]) as index:
                    problems += check_cli(*run_cli(self.root, argv), code, expected)
                spans.append(index)
        started = perf_counter()
        for index, (argv, _, _) in zip(spans, commands):
            problems += self.replay(argv, index)
        self.replay_s.append(perf_counter() - started)
        return problems


class CheckDoc16(Workload):
    name = "check-doc16"
    n = 16
    words_per_op = 2 << 16
    setups = 12

    def setup(self):
        rng = random.Random(self.seed)
        self.alg_path = self.work / "alg16.json"
        self.table_path = self.work / "table16.json"
        qverify.save_algorithm(qverify.build_algorithm(self.n), self.alg_path)
        self.flipped = rng.randrange(1 << self.n)
        table = codeword_values(self.n)
        table[self.flipped] ^= 1
        self.table_path.write_text(json.dumps(
            {"schema_version": 1, "arity": self.n, "table": table.tolist()}), encoding="utf-8")

    def commands(self, i, wrong):
        n = self.n
        common = {"command": "check", "n_vars": n, "t_queries": n // 2, "unitary": True,
                  "inputs_checked": 1 << n}
        counterexample = word_of(self.flipped ^ int(wrong), n)
        return [
            (["check", "--algorithm", str(self.alg_path), "--function", "verify", "--json"], 0,
             {**common, "exact": True, "counterexample": None,
              "min_probability": AtLeast(1.0 - EXACT_TOL)}),
            (["check", "--algorithm", str(self.alg_path), "--function", str(self.table_path),
              "--json"], 1,
             {**common, "exact": False, "counterexample": counterexample,
              "min_probability": AtMost(EXACT_TOL)}),
        ]

    def replay(self, argv, parent):
        function = argv[argv.index("--function") + 1]
        with self._span("serialize.load_algorithm", parent):
            alg = qverify.load_algorithm(self.alg_path)
        if function == "verify":
            with self._span("boolfunc.verify", parent):
                f = qverify.BooleanFunction.verify(alg.n_vars)
        else:
            with self._span("serialize.load_function", parent):
                f = qverify.load_function(function)
        with self._span("linalg.unitary_within", parent):
            alg.unitary_within()
        arrays = _sweep_arrays(alg)

        def kernel_pass(ce, scale):
            results = []
            for lo, hi in _chunk_grid(alg.n_vars, alg.dim):
                if f.table is None:
                    with self._span("_kernels.verify_values_range", ce, scale):
                        expected = _kernels.verify_values_range(alg.n_vars, lo, hi)
                else:
                    expected = f.table[lo:hi]
                with self._span("_kernels.sweep_range", ce, scale):
                    results.append(_kernels.sweep_range(*arrays, alg.n_vars, lo, hi, expected,
                                                        EXACT_TOL))
            return results

        report, passes = self.check_exact_between(
            parent, lambda: qverify.check_exact(alg, f), kernel_pass)
        return [p for results in passes for p in kernel_agrees("sweep_range", results, report)]

    def kernel_bench(self):
        metrics, problems = {}, []
        for n in (12, 14):
            alg = qverify.build_algorithm(n)
            arrays = _sweep_arrays(alg)
            expected = codeword_values(n)
            with self._span("_kernels.sweep_range") as index:
                first, min_prob = _kernels.sweep_range(*arrays, n, 0, 1 << n, expected, EXACT_TOL)
            metrics[f"_kernels.sweep_range_n{n}_s"] = (self.tracer.duration(index), "s")
            problems += dense_reference(
                alg, expected, first, min_prob, self.seed,
                lambda lo, hi: _kernels.sweep_range(*arrays, n, lo, hi, expected[lo:hi], EXACT_TOL))
        return metrics, problems

    def kernel_words_per_s(self, summary):
        return KERNEL_PASSES * self.words_per_op / median(summary.per_op("_kernels.sweep_range"))

    def layer_metrics(self, summary):
        dim = 1 << (self.n // 2)
        flop_per_word = 2.0 * dim * dim * (self.n // 2 + 1)
        load_s = median(summary.calls("serialize.load_algorithm"))
        words_per_s = self.kernel_words_per_s(summary)
        return {
            "cli.self_s": (median(summary.layer("cli")), "s"),
            "serialize.load_algorithm_s": (load_s, "s"),
            "serialize.load_algorithm_mb_per_s": (self.alg_path.stat().st_size / 1e6 / load_s,
                                                  "MB/s"),
            "serialize.load_function_s": (median(summary.calls("serialize.load_function")), "s"),
            "linalg.unitary_check_s": (median(summary.calls("linalg.unitary_within")), "s"),
            "model.check_exact_s": (median(summary.calls("model.check_exact")), "s"),
            "model.check_exact_self_s": (median(summary.selfs("model.check_exact")), "s"),
            "_kernels.sweep_range_words_per_s": (words_per_s, "words/s"),
            "_kernels.sweep_range_gflop_per_s": (flop_per_word * words_per_s / 1e9,
                                                 "GFLOP/s computed"),
        }


class SeparationN18(Workload):
    name = "separation-n18"
    n = 18
    words_per_op = 1 << 18
    setups = 12
    k = 12

    def setup(self):
        n = self.n
        rng = random.Random(self.seed)
        self.inputs = [random_codeword(rng, n) for _ in range(64)]
        # String pairs of the longest length `equal` takes; every second pair
        # differs in one seeded bit.
        self.pairs = []
        for i in range(64):
            y = "".join(rng.choice("01") for _ in range(self.k))
            z = y if i % 2 == 0 else flip(y, rng.randrange(self.k))
            self.pairs.append((y, z))
        # Sensitivity from its definition, on the benchmark's own table.
        table = codeword_values(n)
        ints = np.arange(1 << n, dtype=np.int64)
        counts = sum((table != table[ints ^ (1 << pos)]).astype(np.int64) for pos in range(n))
        self.sensitivity = int(counts.max())
        self.witness = word_of(int(np.argmax(counts)), n)

    def commands(self, i, wrong):
        n = self.n
        word = self.inputs[i % len(self.inputs)]
        y, z = self.pairs[i % len(self.pairs)]
        return [
            (["verify", "--n", str(n), "--parallel", "--json"], 0,
             {"command": "verify", "n_vars": n, "t_queries": n // 2, "inputs_checked": 1 << n,
              "exact": True, "counterexample": None,
              "min_probability": AtLeast(1.0 - EXACT_TOL)}),
            (["sensitivity", "--n", str(n), "--json"], 0,
             {"command": "sensitivity", "n_vars": n, "sensitivity": self.sensitivity + int(wrong),
              "witness": self.witness}),
            (["classical", "--n", str(n), "--input", word, "--json"], 0,
             {"command": "classical", "n_vars": n, "input": word, "output": 1, "queries_used": n,
              "query_sequence": list(range(1, n + 1))}),
            (["equal", "--y", y, "--z", z, "--json"], int(y != z),
             {"command": "equal", "y": y, "z": z, "word": "".join(map("".join, zip(y, z))),
              "n_vars": 2 * self.k, "equal": y == z}),
        ]

    def replay(self, argv, parent):
        n = self.n
        if argv[0] == "verify":
            workers = VERIFY_PARALLEL_WORKERS
            with self._span("builder.build_algorithm", parent):
                alg = qverify.build_algorithm(n)
            with self._span("boolfunc.verify", parent):
                f = qverify.BooleanFunction.verify(n)

            def kernel_pass(ce, scale):
                results = []
                for lo, hi in _chunk_grid(n, alg.dim):
                    with self._span("_kernels.verify_values_range", ce, scale):
                        expected = _kernels.verify_values_range(n, lo, hi)
                    with self._span("_kernels.pair_sweep_range", ce, scale):
                        results.append(_kernels.pair_sweep_range(n, lo, hi, expected,
                                                                 EXACT_TOL))
                return results

            report, passes = self.check_exact_between(
                parent, lambda: qverify.check_exact(alg, f, workers=workers), kernel_pass,
                workers)
            return [p for results in passes
                    for p in kernel_agrees("pair_sweep_range", results, report)]
        if argv[0] == "sensitivity":
            with self._span("boolfunc.verify", parent):
                f = qverify.BooleanFunction.verify(n)
            with self._span("boolfunc.sensitivity", parent) as sp:
                value, witness = qverify.sensitivity(f)
            with self._span("_kernels.verify_values_range", sp):
                table = _kernels.verify_values_range(n, 0, 1 << n)
            with self._span("_kernels.table_sensitivity", sp):
                kernel = _kernels.table_sensitivity(table, n)
            if (value, witness) != (self.sensitivity, self.witness) or \
                    kernel != (self.sensitivity, int(self.witness, 2)):
                return [f"sensitivity replay {value, witness}, kernel {kernel}"]
            return []
        if argv[0] == "equal":
            y, z = argv[argv.index("--y") + 1], argv[argv.index("--z") + 1]
            with self._span("strings.strings_equal", parent) as se:
                pair = qverify.StringPair(y=y, z=z)
                equal = qverify.strings_equal(pair)
                word = qverify.interleave(pair)
            with self._span("_kernels.pair_run", se):
                final = _kernels.pair_run(2 * self.k, int(word, 2))
            if equal != (y == z) or (final[0] * final[0] > 0.5) != (y == z):
                return [f"equal replay on {y}, {z}: strings_equal {equal}, pair_run p1 "
                        f"{final[0] * final[0]!r}"]
            return []
        word = argv[argv.index("--input") + 1]
        with self._span("boolfunc.classical_verify", parent):
            report = qverify.classical_verify(qverify.bit_oracle(word), n)
        return [] if report.queries_used == n else [f"classical replay used {report.queries_used}"]

    def kernel_bench(self):
        metrics, problems = {}, []
        for n in (12, 14, 16):
            expected = codeword_values(n)
            with self._span("_kernels.pair_sweep_range") as index:
                first, min_prob = _kernels.pair_sweep_range(n, 0, 1 << n, expected, EXACT_TOL)
            metrics[f"_kernels.pair_sweep_range_n{n}_s"] = (self.tracer.duration(index), "s")
            problems += dense_reference(
                qverify.build_algorithm(n), expected, first, min_prob, self.seed,
                lambda lo, hi: _kernels.pair_sweep_range(n, lo, hi, expected[lo:hi], EXACT_TOL))
        for n in (16, 18):
            table = codeword_values(n)
            with self._span("_kernels.table_sensitivity") as index:
                result = _kernels.table_sensitivity(table, n)
            metrics[f"_kernels.table_sensitivity_n{n}_s"] = (self.tracer.duration(index), "s")
            if result != (n, 0):
                problems.append(f"table_sensitivity n={n} gives {result}, expected ({n}, 0)")
        # Single-word paths: every second word is a codeword.
        rng = random.Random(self.seed)
        for n in (16, 20, 24):
            words = [int(random_codeword(rng, n), 2) if j % 2 else rng.randrange(1 << n)
                     for j in range(PAIR_RUN_WORDS)]
            with self._span("_kernels.pair_run") as index:
                finals = [_kernels.pair_run(n, w) for w in words]
            metrics[f"_kernels.pair_run_n{n}_{PAIR_RUN_WORDS}x_s"] = (
                self.tracer.duration(index), "s")
            problems += pair_run_agrees(n, words, finals)
        alg = qverify.build_algorithm(self.k)
        words = [random_codeword(rng, self.k) if j % 2 else word_of(rng.randrange(1 << self.k),
                                                                    self.k) for j in range(256)]
        with self._span("model.run") as index:
            runs = [qverify.run(alg, w).final for w in words]
        metrics[f"model.run_n{self.k}_us"] = (1e6 * self.tracer.duration(index) / len(words), "us")
        with self._span("model.compute") as index:
            results = [qverify.compute(alg, w) for w in words]
        metrics[f"model.compute_n{self.k}_us"] = (
            1e6 * self.tracer.duration(index) / len(words), "us")
        problems += [f"model.run on {w} differs from pair_run" for w, final in zip(words, runs)
                     if np.abs(final - _kernels.pair_run(self.k, int(w, 2))).max() > REF_TOL][:5]
        problems += [f"compute on {w}: output {r.output}, exact={r.exact}"
                     for w, r in zip(words, results)
                     if not r.exact or r.output != int(w[0::2] == w[1::2])][:5]
        return metrics, problems

    def kernel_words_per_s(self, summary):
        return KERNEL_PASSES * self.words_per_op / median(
            summary.per_op("_kernels.pair_sweep_range"))

    def layer_metrics(self, summary):
        walls = summary.calls("model.check_exact")
        selfs = summary.selfs("model.check_exact")
        return {
            "cli.self_s": (median(summary.layer("cli")), "s"),
            "builder.build_algorithm_s": (median(summary.calls("builder.build_algorithm")), "s"),
            "model.check_exact_s": (median(walls), "s"),
            "model.check_exact_self_s": (median(selfs), "s"),
            # Serial kernel time / (workers x wall); the kernel spans are scaled by
            # 1/workers, so this is the share of the wall they explain.
            "model.parallel_efficiency": (median([1 - own / wall for wall, own in
                                                  zip(walls, selfs)]), "ratio"),
            "model.parallel_workers": (VERIFY_PARALLEL_WORKERS, "count"),
            "_kernels.pair_sweep_range_words_per_s": (self.kernel_words_per_s(summary), "words/s"),
            # The op calls verify_values_range in each kernel pass over the
            # check_exact grid and once over the whole table for sensitivity.
            "_kernels.verify_values_range_words_per_s": (
                (KERNEL_PASSES + 1) * self.words_per_op
                / median(summary.per_op("_kernels.verify_values_range")), "words/s"),
            "boolfunc.sensitivity_s": (median(summary.calls("boolfunc.sensitivity")), "s"),
            "boolfunc.classical_verify_us": (
                1e6 * median(summary.calls("boolfunc.classical_verify")), "us"),
            "strings.strings_equal_us": (1e6 * median(summary.calls("strings.strings_equal")),
                                         "us"),
            "_kernels.pair_run_us": (1e6 * median(summary.calls("_kernels.pair_run")), "us"),
        }


WORKLOADS = {cls.name: cls for cls in (CheckDoc16, SeparationN18)}
