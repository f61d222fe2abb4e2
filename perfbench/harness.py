"""Timing, tracing and pass execution shared by the workloads."""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


@dataclass(frozen=True)
class Op:
    """One user-level call (or one CLI process).

    `group` names its input set; `case` is what the checker needs to judge
    the result.
    """

    group: str
    fn: Callable[["Tracer"], Any]
    case: Any = None


def spread(ops: list[Op], seed: int) -> list[Op]:
    """The operations in a seeded random order.

    This spreads each input set over the whole pass, so that its times sample
    the machine's speed over the pass and not over one moment of it.
    """
    out = list(ops)
    random.Random(seed).shuffle(out)
    return out


class Failed:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Failed({self.message})"


class Tracer:
    """Records a span around each call the benchmark makes into `wordrep`.

    A span is [name, start, end, parent span index, op index].  With tracing
    off, `call` is a plain call.  Spans stay in memory until the run ends.
    """

    def __init__(self) -> None:
        self.on = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()


class SpanView:
    """Self times (ms) of the spans recorded during one traced pass."""

    def __init__(self, spans: list[list], first: int, ops: list[Op], results: list):
        self.spans = spans[first:]
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None and s[3] >= first:
                child[s[3] - first] += s[2] - s[1]
        self.self_ms = [(s[2] - s[1] - c) * 1000.0 for s, c in zip(self.spans, child)]
        self.ops = ops
        self.results = results

    def select(self, name: str, keep: Callable[[Op, Any], bool] | None = None) -> list[float]:
        out = []
        for s, ms in zip(self.spans, self.self_ms):
            if s[0] != name:
                continue
            if keep is not None:
                if s[4] is None or not keep(self.ops[s[4]], self.results[s[4]]):
                    continue
            out.append(ms)
        return out

    def total(self, name: str, keep=None) -> float:
        return sum(self.select(name, keep))

    def median(self, name: str, keep=None) -> float:
        values = self.select(name, keep)
        return statistics.median(values) if values else float("nan")


@dataclass
class PassResult:
    wall_s: float
    op_s: list[float]
    results: list
    failed: int


def run_pass(ops: list[Op], tr: Tracer, op_span: str) -> PassResult:
    """Run every operation once, in order, timing each one."""
    results: list = [None] * len(ops)
    times = [0.0] * len(ops)
    failed = 0
    start = perf_counter()
    for i, op in enumerate(ops):
        tr.op = i
        t0 = perf_counter()
        try:
            results[i] = tr.call(op_span, op.fn, tr)
        except Exception as exc:  # a raising operation is counted, not fatal
            results[i] = Failed(exc)
            failed += 1
        times[i] = perf_counter() - t0
    wall = perf_counter() - start
    tr.op = None
    return PassResult(wall, times, results, failed)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]
