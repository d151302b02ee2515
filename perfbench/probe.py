"""Pass-through wrappers around library functions, with optional spans.

The benchmark instruments the library from outside. A Probe replaces
functions as the calling module sees them (``harness.maximum_matching_size``,
not ``graphs.maximum_matching_size``) and puts the originals back on exit, so
no file of the library carries instrumentation.

With spans off a wrapper only keeps the arguments and result of the latest
call, which the benchmark's output checks read. With spans on it also records
(name, start, end, parent) for every call; a span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType

# Modules whose public functions the traced run wraps.
LIBRARY_LAYERS = ("arbormatch.streams", "arbormatch.graphs", "arbormatch.estimators")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Probe.spans; None for an op's root span


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def span_name(fn) -> str:
    """``<layer>.<function>``, the layer being the defining module."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def library_calls(
    callers: list[ModuleType], *extra: tuple[ModuleType, str]
) -> list[tuple[ModuleType, str]]:
    """(module, attribute) for each public streams/graphs/estimators function
    a caller module imported, plus ``extra`` bindings such as
    ``(graphs, "degeneracy")``, which ``graphs.build_graph`` calls."""
    targets = []
    for module in callers:
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__ in LIBRARY_LAYERS
                and obj.__module__ != module.__name__
            ):
                targets.append((module, attr))
    return targets + list(extra)


class Probe:
    """Context manager that wraps ``targets`` for its duration."""

    def __init__(self, targets: list[tuple[ModuleType, str]], spans: bool):
        self.targets = targets
        self.record_spans = spans
        self.spans: list[Span] = []
        self.last: dict[str, tuple] = {}  # span name -> (args, kwargs, result)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Probe":
        for module, attr in self.targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn):
        name = span_name(fn)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.last[name] = (args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Span around a wrapped call or a call the benchmark itself makes."""
        if not self.record_spans:
            yield
            return
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def totals(self) -> dict[str, SpanTotals]:
        """Calls, total and self seconds per span name."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
        out: dict[str, SpanTotals] = {}
        for span, covered in zip(self.spans, child_s):
            t = out.setdefault(span.name, SpanTotals())
            t.calls += 1
            t.total_s += span.end - span.start
            t.self_s += span.end - span.start - covered
        return out

    def root_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)
