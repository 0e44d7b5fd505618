"""In-memory span tracing of aelab's public functions, installed from outside.

A :class:`Tracer` replaces public names at the module attribute their caller
looks them up through (for example ``aelab.cli.run_experiment``, which is the
name ``cli.main`` calls) with a wrapper that records one span per call:
``(name, start, end, parent, run_id)``.  Spans stay in memory until the run
ends.  :meth:`Tracer.restore` puts every original attribute back, so code run
after tracing carries no wrappers.

Self time is a span's duration minus the part of its interval that its child
spans cover; the self times of a span tree therefore sum to its root's
duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One public name to wrap.

    ``module``/``attr`` locate the attribute the caller reads; ``span`` is the
    layer-qualified span name.  ``count`` optionally maps ``(args, kwargs,
    result)`` to ``{counter: increment}``.
    """

    module: str
    attr: str
    span: str
    count: Callable | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    run_id: int = 0
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        kwargs = kwargs or {}
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        # placeholder keeps child indices stable while the call runs
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.run_id)
        if count is not None:
            for key, amount in count(args, kwargs, result).items():
                self.add(key, amount)
        return result

    # -- installing wrappers -------------------------------------------------

    def install(self, targets) -> None:
        """Replace every target attribute with a span-recording wrapper."""
        for target in targets:
            module = importlib.import_module(target.module)
            original = getattr(module, target.attr)
            self._saved.append((module, target.attr, original))
            setattr(module, target.attr, self._wrapper(original, target))

    def _wrapper(self, fn, target: Target):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self.call(target.span, fn, args, kwargs, target.count)

        wrapped.__perfbench_wrapped__ = True
        return wrapped

    def restore(self) -> None:
        """Put back every attribute :meth:`install` replaced, newest first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end, span.parent, span.run_id]) + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the coverage of its direct children."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [s.duration - _covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0  # union over spans of this name (nested repeats count once)
    self_s: float = 0.0


def summarize(spans: list[Span]) -> dict[str, LayerStats]:
    """Per span name: call count, busy time and self time."""
    selfs = self_times(spans)
    stats: dict[str, LayerStats] = {}
    for i, span in enumerate(spans):
        st = stats.setdefault(span.name, LayerStats())
        st.calls += 1
        st.self_s += selfs[i]
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            st.busy_s += span.duration
    return stats
