"""Span tracing around the library's public functions, for the traced run.

Each traced function is replaced, in every ``freevol`` module that binds it,
by a wrapper that records a span: name, start, end, busy duration, parent
span and op id.  A generator function gets one span per call whose busy
duration is the time spent inside its resumptions; each resumption is
charged to the span that resumed it, so a consumer's self time excludes the
time its generator spends producing items.

A span's self time is its busy duration minus the time charged to it by
its children.  The op runner opens one root span per op, so the self times
of an op's spans should sum to the op's wall time as the worker measures it
around the traced call; ``self_time_gap_ms`` measures how far they are off.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# Public functions wrapped in the traced run, as "module.function".  A span
# takes the function's dotted name, except where ALIASES gives a shorter one.
TRACED = (
    "cli.main",
    "filling.check_filling",
    "filling.check_f2",
    "filling.check_f3",
    "filling.whitehead_minimize",
    "pingpong.configure",
    "pingpong.certify",
    "pingpong.realize",
    "pingpong.empirical_no_periodic_orbit",
    "splittings.dehn_twist",
    "splittings.transform",
    "stallings.fold_and_core",
    "stallings.is_malnormal",
    "stallings.pullback",
    "twisting.bcc",
    "twisting.constants",
    "twisting.check_volume_growth_bounds",
    "volume.free_volume",
    "volume.lambda_graph",
    "volume.translation_length",
    "words.compose",
    "words.enumerate_cyclic_classes",
    "words.invert",
    "words.power",
)
ALIASES = {"pingpong.empirical_no_periodic_orbit": "pingpong.orbit"}

ROOT_SPAN = "op"
# Largest allowed difference between an op's summed self times and its wall
# time: the root span's own bookkeeping, which the wall time includes.
SELF_SUM_TOLERANCE_MS = 0.5


class Span:
    __slots__ = ("index", "name", "op", "parent", "start", "end", "busy", "child_busy")

    def __init__(self, index: int, name: str, op, parent: Optional["Span"], start: float) -> None:
        self.index = index
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child_busy = 0.0

    @property
    def self_time(self) -> float:
        return self.busy - self.child_busy


class Tracer:
    """Collects spans and per-op counters for one traced worker process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = "setup"
        self.counts: dict = defaultdict(lambda: defaultdict(float))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.op][name] += amount

    def _open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, self.op, parent, time.perf_counter())
        self.spans.append(span)
        return span

    def _close(self, span: Span, started: float, charged: Optional[Span]) -> None:
        """End a stretch of ``span`` begun at ``started``, charging it to ``charged``."""
        span.end = time.perf_counter()
        elapsed = span.end - started
        span.busy += elapsed
        if charged is not None:
            charged.child_busy += elapsed

    def run_op(self, op_id, call: Callable):
        """Run ``call`` under a root span for op ``op_id``."""
        self.op = op_id
        root = self._open(ROOT_SPAN)
        self.stack.append(root)
        try:
            return call()
        finally:
            self.stack.pop()
            self._close(root, root.start, None)
            self.op = "setup"

    def wrap(self, name: str, func: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        if inspect.isgeneratorfunction(func):

            def traced_generator(*args, **kwargs):
                span = tracer._open(name)
                inner = func(*args, **kwargs)
                while True:
                    resumer = tracer.stack[-1] if tracer.stack else None
                    started = time.perf_counter()
                    tracer.stack.append(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.stack.pop()
                        tracer._close(span, started, resumer)
                    yield item

            traced_generator.__wrapped__ = func
            return traced_generator

        def traced(*args, **kwargs):
            span = tracer._open(name)
            tracer.stack.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.count(name + ".failed")
                raise
            finally:
                tracer.stack.pop()
                tracer._close(span, span.start, span.parent)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self, hooks: dict) -> None:
        """Wrap every function in TRACED wherever a freevol module binds it.

        ``hooks`` maps a span name to ``after(tracer, args, kwargs, result)``,
        called after each successful call to record counters.
        """
        # Load every module first, so that every binding is seen.
        modules = {dotted: importlib.import_module("freevol." + dotted.split(".")[0]) for dotted in TRACED}
        for dotted in TRACED:
            original = getattr(modules[dotted], dotted.split(".")[1])
            name = ALIASES.get(dotted, dotted)
            wrapped = self.wrap(name, original, hooks.get(name))
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name != "freevol" and not loaded_name.startswith("freevol."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)

    def dump(self, path) -> None:
        """Write every span as one JSON line: index, name, op, parent, start, end, busy."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = span.parent.index if span.parent is not None else None
                handle.write(
                    json.dumps([span.index, span.name, span.op, parent, span.start, span.end, span.busy])
                    + "\n"
                )

    def summary(self, op_ids: list) -> dict:
        """Per-op totals of self and busy time (ms) and calls by span name, plus counters.

        Returns ``{"ops": {op_id: {...}}, "setup": {...}, "self_sum_ms": {op_id: x}}``
        where ``self_sum_ms`` is the sum of the self times of each op's spans.
        """
        per_op: dict = {op_id: defaultdict(float) for op_id in op_ids}
        per_op["setup"] = defaultdict(float)
        self_sums: dict = {op_id: 0.0 for op_id in op_ids}
        for span in self.spans:
            bucket = per_op.setdefault(span.op, defaultdict(float))
            bucket[span.name + ".self_ms"] += span.self_time * 1000.0
            bucket[span.name + ".busy_ms"] += span.busy * 1000.0
            bucket[span.name + ".calls"] += 1
            if span.op in self_sums:
                self_sums[span.op] += span.self_time * 1000.0
        for op_id, counters in self.counts.items():
            bucket = per_op.setdefault(op_id, defaultdict(float))
            for name, value in counters.items():
                bucket[name] += value
        return {
            "ops": {op_id: dict(per_op[op_id]) for op_id in op_ids},
            "setup": dict(per_op["setup"]),
            "self_sum_ms": self_sums,
        }


def self_time_gap_ms(self_sums_ms: dict, latencies_s: list) -> float:
    """Largest difference, over ops, between summed self times and wall time.

    ``self_sums_ms`` maps op index to the sum of its spans' self times, and
    ``latencies_s[i]`` is op i's wall time measured around the traced call.
    A span whose time is dropped, or counted twice, shows as a gap of that
    span's duration.
    """
    return max(
        (abs(latencies_s[op_id] * 1000.0 - total) for op_id, total in self_sums_ms.items()),
        default=0.0,
    )
