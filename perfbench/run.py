#!/usr/bin/env python3
"""qverify benchmark: one workload per invocation, a closed loop with one client.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload check-doc16 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

The program under test is `src/qverify` of the same checkout. A run sets
its workload up from the seed, runs ops back to back for `--seconds` and
checks every output; the set-up is timed several times across the run
and `setup_s` is the median. With `--trace 0` it reports the end-to-end
metrics. With `--trace 1` it alternates untraced and traced ops, then runs
the kernel ladder, and reports per-layer metrics; every span is written
to `.perfbench/spans-<workload>-seed<seed>.jsonl`.

Standard output ends with two lines of JSON: a report holding every metric
by name and unit (those BENCHMARK.json lists and the detail around them)
with the run's metadata, then the result object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

from tracing import SpanSummary, Tracer, median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

LAYERS = ("cli", "serialize", "linalg", "builder", "model", "boolfunc", "strings", "_kernels")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS",
              "QVERIFY_BACKEND")
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)


def tail(durations) -> dict | None:
    """Highest listed percentile with at least 10 samples beyond it (nearest rank)."""
    ordered = sorted(durations)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(len(ordered) * p / 100)
        if len(ordered) - rank >= 10:
            return {"value": ordered[rank - 1], "unit": "s", "percentile": p,
                    "samples": len(ordered), "beyond": len(ordered) - rank}
    return None


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of the largest child process, that is of the largest CLI run."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Loop:
    """Outcome of running ops back to back."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.cpu_s = 0.0
        self.setup_s: list[float] = []
        self.setup_cpu_s = 0.0

    def record(self, i, duration: float | None, problems: list[str]) -> None:
        """Count one checked op; `duration` is None for a check that is not an op."""
        self.attempted += 1
        if duration is not None:
            self.durations.append(duration)
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append({"op": i, "problems": problems})

    def timed_setup(self, setup) -> None:
        cpu0 = cpu_seconds()
        started = perf_counter()
        setup()
        self.setup_s.append(perf_counter() - started)
        self.setup_cpu_s += cpu_seconds() - cpu0


def measure(op, seconds: float, setup=None, setups: int = 1, min_ops: int = 1,
            max_ops: int | None = None, wrong_op: int | None = None) -> Loop:
    """Run op(i) back to back for `seconds` of op time, at least `min_ops`
    times; start no op that would end later, judging by the previous one.

    When `setup` is given, it is timed `setups` times, spread evenly over
    the run: the first before any op, the last after the last op. This
    machine's speed drifts over seconds, and a median of set-ups taken at
    one moment would follow that drift. Set-up time and CPU are not op time.
    """
    loop = Loop()
    interval = seconds / max(setups - 1, 1)
    cpu0 = cpu_seconds()
    op_time = 0.0
    i = 0
    while True:
        if setup is not None and len(loop.setup_s) < max(setups - 1, 1) \
                and op_time >= interval * len(loop.setup_s):
            loop.timed_setup(setup)
        t0 = perf_counter()
        try:
            problems = op(i, i == wrong_op)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            problems = [f"{type(exc).__name__}: {exc}"]
        duration = perf_counter() - t0
        loop.record(i, duration, problems)
        op_time += duration
        i += 1
        if loop.attempted >= min_ops and (op_time + duration > seconds
                                          or loop.attempted == max_ops):
            break
    while setup is not None and len(loop.setup_s) < setups:
        loop.timed_setup(setup)
    loop.cpu_s = cpu_seconds() - cpu0 - loop.setup_cpu_s
    return loop


def metadata(seed: int) -> dict:
    import numpy
    import qverify
    from workloads import VERIFY_PARALLEL_WORKERS

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "backend": qverify.BACKEND,
        "have_numba": qverify.HAVE_NUMBA,
        "numpy": numpy.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "verify_parallel_workers": VERIFY_PARALLEL_WORKERS,
        "git_commit": git_commit(),
        "seed": seed,
        "src_qverify_lines": sum(1 for path in sorted((SRC / "qverify").rglob("*.py"))
                                 for line in path.read_text(encoding="utf-8").splitlines()
                                 if line.strip()),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(wl, seconds: float) -> tuple[dict, dict, Loop]:
    loop = measure(wl.op, seconds, setup=wl.setup, setups=wl.setups)
    metrics = {
        "setup_s": metric(median(loop.setup_s), "s"),
        "op_p50_s": metric(median(loop.durations), "s"),
        "words_per_s": metric(wl.words_per_op * loop.attempted / sum(loop.durations), "words/s"),
        "cpu_s": metric(loop.cpu_s / loop.attempted, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    detail = {
        "op_tail_s": tail(loop.durations),
        "error_rate": {"value": loop.failed / loop.attempted, "unit": "ratio",
                       "attempted": loop.attempted},
        "setup_runs_s": loop.setup_s,
    }
    return metrics, detail, loop


def traced_run(wl, seconds: float) -> tuple[dict, dict, Loop]:
    tracer = wl.tracer = Tracer()
    # Untraced (even) and traced (odd) ops alternate, so that both see the
    # same machine speed and their difference is the tracing overhead.
    loop = measure(lambda i, wrong: (wl.traced_op if i % 2 else wl.op)(i, wrong), seconds,
                   setup=wl.setup, min_ops=2)
    untraced_p50 = median(loop.durations[0::2])
    ops = list(range(1, loop.attempted, 2))
    tracer.op = "kernels"
    kernels, kernel_problems = wl.kernel_bench()
    loop.record("kernels", None, kernel_problems)

    summary = SpanSummary(tracer, ops)
    walls = summary.calls("op")
    total = sum(walls)
    metrics = {f"{layer.lstrip('_')}.share": metric(sum(summary.layer(layer)) / total, "ratio")
               for layer in LAYERS}
    metrics["unexplained.share"] = metric(sum(summary.layer("op")) / total, "ratio")
    metrics["trace.op_p50_s"] = metric(median(walls), "s")
    # The spans around the CLI runs; the replays after them are trace.replay_s.
    metrics["trace.overhead_s"] = metric(median(walls) - untraced_p50, "s")
    metrics["trace.replay_s"] = metric(median(wl.replay_s), "s")
    metrics["kernels.words_per_s"] = metric(wl.kernel_words_per_s(summary), "words/s")

    spans_path = WORK / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    tracer.write(spans_path)
    detail = {
        "layer_self_s_per_op": {layer: median(summary.layer(layer)) for layer in LAYERS},
        "unexplained_s_per_op": median(summary.layer("op")),
        "untraced_op_p50_s": untraced_p50,
        "traced_ops": len(ops),
        "layer_metrics": {k: metric(*v) for k, v in wl.layer_metrics(summary).items()},
        "kernel_ladder": {k: metric(*v) for k, v in kernels.items()},
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
    }
    return metrics, detail, loop


def self_test(workloads) -> int:
    """Run two real ops of every workload with a wrong expectation on the
    second; the checker must count exactly that op as failed."""
    ok = True
    for cls in workloads.values():
        wl = cls(ROOT, WORK, seed=0)
        loop = measure(wl.op, 60.0, setup=wl.setup, max_ops=2, wrong_op=1)
        counted = loop.failed == 1 and [p["op"] for p in loop.problems] == [1]
        ok &= counted
        print(json.dumps({"workload": wl.name, "attempted": loop.attempted,
                          "failed": loop.failed, "error_rate": loop.failed / loop.attempted,
                          "wrong_expectation_counted": counted, "problems": loop.problems}))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qverify benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that a wrong expectation is counted as a failed op")
    args = parser.parse_args(argv)

    if not (SRC / "qverify" / "__init__.py").is_file():
        print(f"error: no qverify sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import qverify
    from workloads import WORKLOADS

    if Path(qverify.__file__).resolve().parent != SRC / "qverify":
        print(f"error: imported qverify from {qverify.__file__}, not {SRC}", file=sys.stderr)
        return 2
    checks.self_test()
    WORK.mkdir(exist_ok=True)
    if args.self_test:
        return self_test(WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    wl = WORKLOADS[args.workload](ROOT, WORK, args.seed)
    run = traced_run if args.trace else untraced_run
    metrics, detail, loop = run(wl, args.seconds)

    report = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
              "metrics": metrics, "detail": detail, "failures": loop.problems,
              "metadata": metadata(args.seed)}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
