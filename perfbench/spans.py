"""In-memory spans around calls into happygrid's layers, and self time.

The tracer wraps public functions where the calling module binds them, so
nothing under src/ changes.  Each replayed op is a root span; wrapped
calls made while it runs are its descendants.  A span's self time is its
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index of the parent span, -1 for a root
    op: int       # id of the op the span belongs to


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    # ----------------------------- wrapping -----------------------------

    def _patch(self, target: str, make) -> None:
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(target)
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make(original)))

    def span(self, target: str, name: str) -> None:
        """Record a span named `name` around every call of `target`."""
        def make(fn):
            if inspect.isgeneratorfunction(fn):
                def wrapper(*args, **kwargs):
                    index = self.open(name)
                    try:
                        yield from fn(*args, **kwargs)
                    finally:
                        self.close(index)
            else:
                def wrapper(*args, **kwargs):
                    index = self.open(name)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        self.close(index)
            return wrapper
        self._patch(target, make)

    def count(self, target: str, name: str) -> None:
        """Count calls of `target` under `name`, without a span per call."""
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        self._patch(target, make)

    def cache_outcomes(self, target: str, name: str) -> None:
        """Span `target` (a cache loader taking the path first) and count
        its outcome: hit, miss (no file) or reject (file ignored)."""
        def make(fn):
            def wrapper(path, *args, **kwargs):
                existed = Path(path).exists()
                index = self.open(name)
                try:
                    result = fn(path, *args, **kwargs)
                finally:
                    self.close(index)
                outcome = "hit" if result is not None else "reject" if existed else "miss"
                self.counts[f"cli.cache.{outcome}"] += 1
                return result
            return wrapper
        self._patch(target, make)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def self_time_by_name(spans: list[Span]) -> Counter[str]:
    totals: Counter[str] = Counter()
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return totals
