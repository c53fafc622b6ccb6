"""Nesting wall-time spans.

Usage::

    with trace("train") as root:
        with span("step"):
            with span("forward"):
                ...

``span()`` only records while a ``trace()`` is active on the current
thread; otherwise it returns a shared no-op context manager, so
instrumented library code (the trainer, MOA, the encoders) costs one
attribute lookup per call when tracing is off.  The resulting tree is
turned into a per-path breakdown by :func:`aggregate_spans` and the
"how much of a step did the children account for" number by
:func:`coverage`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

_STATE = threading.local()


@dataclass
class Span:
    """One timed region; ``children`` are the spans opened inside it."""

    name: str
    start: float = 0.0
    end: float = 0.0
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return max(self.end - self.start, 0.0)

    def child_seconds(self) -> float:
        """Total duration of the direct children."""
        return sum(c.duration_s for c in self.children)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "duration_s": self.duration_s,
            "children": [c.to_dict() for c in self.children],
        }


class _NullSpan:
    """Shared no-op context manager returned when tracing is inactive."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _ActiveSpan:
    __slots__ = ("span",)

    def __init__(self, name: str, start: float):
        self.span = Span(name, start)

    def __enter__(self) -> Span:
        stack = _STATE.stack
        stack[-1].children.append(self.span)
        stack.append(self.span)
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        _STATE.stack.pop()
        return False


class _TraceContext:
    __slots__ = ("root",)

    def __init__(self, name: str):
        self.root = Span(name)

    def __enter__(self) -> Span:
        stack = getattr(_STATE, "stack", None)
        if stack is None:
            stack = _STATE.stack = []
        if stack:
            # A nested trace behaves like a span of the enclosing trace.
            stack[-1].children.append(self.root)
        stack.append(self.root)
        self.root.start = time.perf_counter()
        return self.root

    def __exit__(self, *exc):
        self.root.end = time.perf_counter()
        _STATE.stack.pop()
        return False


def trace(name: str = "trace") -> _TraceContext:
    """Open a root span and activate ``span()`` recording under it."""
    return _TraceContext(name)


def span(name: str):
    """A child span of whatever is currently open (no-op when inactive).

    Its clock starts before its record is built, so the record's cost
    counts inside it, not as time its parent cannot account for."""
    if not getattr(_STATE, "stack", None):
        return _NULL
    return _ActiveSpan(name, time.perf_counter())


class Timer:
    """A resumable stopwatch, usable as a context manager."""

    __slots__ = ("elapsed_s", "_started")

    def __init__(self):
        self.elapsed_s = 0.0
        self._started: float | None = None

    def start(self) -> "Timer":
        if self._started is not None:
            raise RuntimeError("timer already running")
        self._started = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started is None:
            raise RuntimeError("timer is not running")
        self.elapsed_s += time.perf_counter() - self._started
        self._started = None
        return self.elapsed_s

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False


def aggregate_spans(root: Span) -> dict[str, dict]:
    """Collapse a span tree into per-path rows.

    Spans are keyed by their slash-joined path from the root (e.g.
    ``train/epoch/step/forward/moa``); repeated visits accumulate.
    ``self_s`` is the time not accounted for by a span's children.
    """
    rows: dict[str, dict] = {}

    def visit(node: Span, prefix: str) -> None:
        path = f"{prefix}/{node.name}" if prefix else node.name
        row = rows.get(path)
        if row is None:
            row = rows[path] = {
                "path": path,
                "calls": 0,
                "total_s": 0.0,
                "self_s": 0.0,
            }
        duration = node.duration_s
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += max(duration - node.child_seconds(), 0.0)
        for child in node.children:
            visit(child, path)

    visit(root, "")
    return rows


def coverage(root: Span, name: str = "step") -> dict:
    """How much of every ``name`` span its children account for.

    Returns ``{"span", "calls", "total_s", "accounted_s", "fraction"}``;
    the fraction is 1.0 when no matching span was recorded (nothing to
    account for).
    """
    total = 0.0
    accounted = 0.0
    calls = 0

    def visit(node: Span) -> None:
        nonlocal total, accounted, calls
        if node.name == name:
            calls += 1
            total += node.duration_s
            accounted += node.child_seconds()
        for child in node.children:
            visit(child)

    visit(root)
    fraction = accounted / total if total > 0 else 1.0
    return {
        "span": name,
        "calls": calls,
        "total_s": total,
        "accounted_s": accounted,
        "fraction": min(fraction, 1.0),
    }
