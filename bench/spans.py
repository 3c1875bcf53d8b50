"""Span tracer for the benchmark's traced run.

``instrumented(tracer)`` wraps the public functions of each coxhom module by
rebinding every name under which a coxhom module holds them, and restores the
originals on exit.  Spans are kept in memory as (name, start, end, parent);
``summarize`` turns them into inclusive time, self time and call counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("cli", "io", "graph", "invariants", "chains", "words", "oracles")

# Helpers called once per label or per letter.  A span costs more than they
# do, so their time stays in the caller's self time.
PER_ELEMENT = frozenset({
    "graph.is_finite", "graph.is_odd", "graph.is_even",
    "words.letter", "words.letter_index",
})


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


class Tracer:
    """Records spans and per-job counts for one stretch of traced jobs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._counted: dict[tuple[str, object], object] = {}

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def count_once(self, name: str, key, value: int, keep=None) -> None:
        """Add ``value`` to counter ``name`` once per job for each ``key``.

        ``keep`` holds the object whose id is in ``key`` alive until the job
        ends, so the id cannot be reused within the job.
        """
        if (name, key) not in self._counted:
            self._counted[(name, key)] = keep
            self.counts[name] += value

    def end_job(self) -> None:
        self._counted.clear()


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds ``s``, ``self_s`` and ``calls``.

    Self time is a span's duration minus the part of it that its child spans
    cover (the union of the child intervals, clipped to the span).
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        row = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += span.end - span.start
        row["self_s"] += span.end - span.start - covered
        row["calls"] += 1
    return out


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_partition(tracer, args, kwargs, partition):
    g = _arg(args, kwargs, 0, "g")
    tracer.count_once("invariants.pairs", id(g), len(partition.pairs), g)
    tracer.count_once("invariants.classes", id(g), len(partition.classes), g)


def _count_odd_edges(tracer, args, kwargs, pg):
    g = _arg(args, kwargs, 0, "g")
    tracer.count_once("graph.odd_edges", id(g), len(pg.edges), g)


def _count_cycles(tracer, args, kwargs, basis):
    pg = _arg(args, kwargs, 0, "pg")
    tracer.count_once("chains.cycles", (pg.vertices, pg.edges), len(basis.basis))


def _count_letters(tracer, args, kwargs, omegas):
    g = _arg(args, kwargs, 0, "g")
    letters = sum(len(w) for w in omegas.omega1 + omegas.omega2 + omegas.omega3)
    tracer.count_once("words.letters", (id(g), omegas.flavor), letters, g)


def _count_json(tracer, args, kwargs, text):
    tracer.counts["io.json_bytes"] += len(text.encode("utf-8"))


# Counts taken from results at layer boundaries.  Each distinct graph counts
# once per job, however often a job recomputes it; `calls` shows the repeats.
COUNTERS = {
    "invariants.pair_classes": _count_partition,
    "graph.odd_subgraph": _count_odd_edges,
    "chains.fundamental_cycle_basis": _count_cycles,
    "words.omega_sets": _count_letters,
    "io.render_json": _count_json,
}


@contextmanager
def instrumented(tracer: Tracer):
    """Route every call of a public coxhom function through ``tracer``."""
    rebound = []
    try:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"coxhom.{layer}")
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in PER_ELEMENT
                ):
                    wrappers[id(value)] = (value, tracer.wrap(name, value, COUNTERS.get(name)))
        for module_name, module in list(sys.modules.items()):
            if module_name != "coxhom" and not module_name.startswith("coxhom."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    rebound.append((module, attr, value))
                    setattr(module, attr, entry[1])
        yield tracer
    finally:
        for module, attr, value in reversed(rebound):
            setattr(module, attr, value)
