"""In-memory span tracer and call-site patcher for the benchmark.

The tracer records one span per call into a layer: its name, start, end and
the span that was open when it began (its parent).  Spans stay in memory;
:meth:`Tracer.summary` folds them into per-name call counts, total time and
*self* time, where a span's self time is its duration minus the part of its
interval covered by its child spans (children that overlap each other are
counted once).

Layers are traced from outside the program: :class:`Patcher` swaps a
function for a wrapper at every place the loaded ``repro`` modules refer to
it, or a method on its class, and puts the originals back on
:meth:`Patcher.restore`.  Nothing in ``src/`` knows it is being traced.

A tracer that finds itself in a forked child (pool workers inherit the
patched functions) drops what it inherited from the parent and starts
afresh, so each process only ever sees its own spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional


class Span:
    """One timed call: ``parent`` is the index of the enclosing span or -1."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent}


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_SpanContext":
        self._index = self._tracer._open(self._name)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._tracer._close(self._index)


class Tracer:
    """Spans and counters of one process, kept in memory until summarised."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def _own_process(self) -> None:
        if os.getpid() != self.pid:
            self._reset()

    # -- recording ------------------------------------------------------ #

    def span(self, name: str) -> _SpanContext:
        """Context manager timing one span named ``name``."""
        return _SpanContext(self, name)

    def _open(self, name: str) -> int:
        self._own_process()
        index = len(self.spans)
        self.spans.append(Span(name, self._clock(), self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = self._clock()
        # Pop through ``index`` even if an inner span was left open, so the
        # next span's parent is whatever enclosed this one.
        while self._stack:
            if self._stack.pop() == index:
                break

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        self._own_process()
        self.counters[name] += value

    def current(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        self._own_process()
        return self.spans[self._stack[-1]].name if self._stack else None

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
    ) -> Callable:
        """``fn`` inside a span named ``name``; ``after`` adds counters from the call.

        A call made while a span of the same name is already innermost (an
        override delegating to its base implementation) passes straight
        through, so each layer counts outermost calls only.
        """

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if self.current() == name:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    # -- summarising ---------------------------------------------------- #

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s`` of closed spans."""
        children: Dict[int, List[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span.parent >= 0:
                children[span.parent].append(index)
        out: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if span.end is None:
                continue
            duration = span.end - span.start
            covered = _covered(
                span.start,
                span.end,
                [(self.spans[c].start, self.spans[c].end) for c in children[index]],
            )
            row = out.setdefault(span.name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered
        return out

    def export(self) -> Dict[str, Any]:
        """Summary plus counters, in the form :func:`merge` adds up."""
        return {"spans": self.summary(), "counters": dict(self.counters)}

    def clear(self) -> None:
        """Forget every span and counter (open spans included)."""
        self._reset()


def _covered(lo: float, hi: float, intervals: List[tuple]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    A child still open (``end is None``) is taken to run to ``hi``.
    """
    clipped = sorted(
        (max(lo, start), min(hi, end if end is not None else hi)) for start, end in intervals
    )
    total = 0.0
    cur_lo, cur_hi = None, None
    for start, end in clipped:
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def merge(exports: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Add up several :meth:`Tracer.export` results (e.g. one per process)."""
    spans: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = defaultdict(float)
    for item in exports:
        for name, row in item["spans"].items():
            acc = spans.setdefault(name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                acc[key] += value
        for name, value in item["counters"].items():
            counters[name] += value
    return {"spans": spans, "counters": dict(counters)}


class Patcher:
    """Replaces functions and methods in loaded ``repro`` modules; undoes it on restore."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def function(self, fn: Callable, replacement: Callable) -> int:
        """Point every module-level reference to ``fn`` at ``replacement``.

        Returns how many references were replaced; a function nobody refers
        to by name would never be traced, so callers check for zero.
        """
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, fn))
                    replaced += 1
        return replaced

    def method(self, cls: type, name: str, replacement: Callable) -> None:
        """Set ``cls.name`` to ``replacement`` (the original must live on ``cls``)."""
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
