"""In-memory spans recorded from the benchmark's own files.

A span is (name, start, end, parent, op, scale). `name` is
`<layer>.<call>`, where the layer is a module of `src/qverify` (or `op` for
the op itself); `parent` is the index of the span that caused it. The
parent link is logical: a replayed library call is the child of the CLI
command it mirrors even though it runs after the command has exited, and a
kernel span is the child of the library call that drives that kernel.
`scale` is the share of the span's duration that lands on the op's wall
time: 1, except for kernel passes that re-time work done inside another
call (several passes are averaged, and a pool spreads work over workers).

Self time is a span's scaled duration minus its children's scaled
durations, so the self times of one op's spans add up to the op's wall
time exactly; the `op` span's own self time is the unexplained remainder.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, OP, SCALE = range(6)


def median(values) -> float:
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | str | None = None

    @contextmanager
    def span(self, name: str, parent: int | None = None, scale: float = 1.0):
        """Time the body as a span; yields the span's index.

        The parent defaults to the innermost open span.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self.op, scale]
        self.spans.append(record)
        self._stack.append(index)
        record[START] = perf_counter()
        try:
            yield index
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def duration(self, index: int) -> float:
        return self.spans[index][END] - self.spans[index][START]

    def write(self, path) -> None:
        """Write spans as JSON lines, times relative to the first span."""
        base = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START] - base,
                                     "end": s[END] - base, "parent": s[PARENT],
                                     "op": s[OP], "scale": s[SCALE]}) + "\n")


class SpanSummary:
    """Durations, self times and per-layer self times of a set of ops."""

    def __init__(self, tracer: Tracer, ops) -> None:
        self.ops = list(ops)
        wanted = set(self.ops)
        spans = tracer.spans
        own = [(s[END] - s[START]) * s[SCALE] for s in spans]
        for s in spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= (s[END] - s[START]) * s[SCALE]
        self._dur: dict = defaultdict(lambda: defaultdict(list))
        self._own: dict = defaultdict(list)
        self._layer: dict = {op: defaultdict(float) for op in self.ops}
        for s, self_time in zip(spans, own):
            if s[OP] in wanted:
                self._dur[s[NAME]][s[OP]].append(s[END] - s[START])
                self._own[s[NAME]].append(self_time)
                self._layer[s[OP]][s[NAME].split(".", 1)[0]] += self_time

    def calls(self, name: str) -> list[float]:
        """Durations of every span called `name`."""
        return [d for per_op in self._dur[name].values() for d in per_op]

    def selfs(self, name: str) -> list[float]:
        """Self times of every span called `name`."""
        return self._own[name]

    def per_op(self, name: str) -> list[float]:
        """For each op, the summed duration of its spans called `name`."""
        return [sum(self._dur[name].get(op, ())) for op in self.ops]

    def layer(self, layer: str) -> list[float]:
        """For each op, the summed self time of its spans in `layer`."""
        return [self._layer[op][layer] for op in self.ops]
