"""Span-based tracing: where a scenario build or exhibit run spends time.

Usage::

    from repro.obs import trace_span, traced

    with trace_span("scenario.build.peeringdb"):
        archive = synthesize_peeringdb_archive()

    @traced
    def facility_count_panel(self): ...

Tracing is **off by default** and the disabled path is near-free:
:func:`trace_span` returns a shared no-op singleton (no allocation, no
clock read) unless global tracing is enabled (:func:`enable_tracing`,
the CLI's ``--trace`` flag).  A server is traced the same way as any
other command: ``repro --trace --metrics-json m.json serve``.

Every recorded span carries the tracer's session trace id, its own span
id, and the id of the span open below it on the same thread's stack
(None for a root).  Finished spans land in a single process-wide list
(lock-protected, bounded) ordered for rendering.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)


def new_trace_id() -> str:
    """A fresh 32-hex-digit (128-bit) trace id."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 16-hex-digit (64-bit) span id."""
    return os.urandom(8).hex()


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One finished span.

    Attributes:
        name: Span name (``component.verb.subject`` like metric names).
        depth: Nesting depth within its thread (0 = root span).
        start: Seconds since the tracer's epoch at span entry.
        duration: Wall-clock seconds spent inside the span.
        thread: Name of the thread that ran the span.
        trace_id: 32-hex id of the tracer session the span belongs to.
        span_id: 16-hex id of this span.
        parent_id: 16-hex id of the parent span, or None for a root.
    """

    name: str
    depth: int
    start: float
    duration: float
    thread: str
    trace_id: str = ""
    span_id: str = ""
    parent_id: str | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "depth": self.depth,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6),
            "thread": self.thread,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span; records itself into the tracer on exit."""

    __slots__ = (
        "_tracer",
        "name",
        "_depth",
        "_start",
        "_t0",
        "_trace_id",
        "_span_id",
        "_parent_id",
    )

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        self._depth = len(stack)
        if stack:
            parent = stack[-1]
            self._trace_id = parent._trace_id
            self._parent_id = parent._span_id
        else:
            self._trace_id = self._tracer.trace_id
            self._parent_id = None
        self._span_id = new_span_id()
        stack.append(self)
        self._t0 = time.perf_counter()
        self._start = self._t0 - self._tracer.epoch
        return self

    def __exit__(self, *exc: object) -> bool:
        duration = time.perf_counter() - self._t0
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._record(
            SpanRecord(
                name=self.name,
                depth=self._depth,
                start=self._start,
                duration=duration,
                thread=threading.current_thread().name,
                trace_id=self._trace_id,
                span_id=self._span_id,
                parent_id=self._parent_id,
            )
        )
        return False


class Tracer:
    """Collects spans while enabled; a cheap flag check while not.

    Attributes:
        trace_id: The *session* trace id every span belongs to (a
            ``--trace`` run forms one process-wide trace).
        max_finished: Bound on retained finished spans; beyond it new
            spans are counted (``trace.spans.dropped``) and discarded so
            a long-lived traced server cannot grow without limit.
    """

    def __init__(self, enabled: bool = False, max_finished: int = 100_000):
        self.enabled = enabled
        self.max_finished = max_finished
        self.epoch = time.perf_counter()
        self.trace_id = new_trace_id()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._finished: list[SpanRecord] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._finished) >= self.max_finished:
                dropped = True
            else:
                dropped = False
                self._finished.append(record)
        if dropped:
            from repro.obs.metrics import get_registry

            get_registry().counter("trace.spans.dropped").inc()

    def span(self, name: str) -> "_Span | _NullSpan":
        """A context manager for one span (no-op while disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def finished(self) -> list[SpanRecord]:
        """Finished spans in start order (pre-order of the span tree)."""
        with self._lock:
            return sorted(self._finished, key=lambda r: r.start)

    def reset(self) -> None:
        """Drop finished spans, restart the epoch, and re-key the session."""
        with self._lock:
            self._finished.clear()
            self.epoch = time.perf_counter()
            self.trace_id = new_trace_id()


#: The process-global tracer; disabled until ``--trace`` or a test asks.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The current global tracer."""
    return _TRACER


def enable_tracing(on: bool = True) -> None:
    """Turn global span collection on or off."""
    _TRACER.enabled = on


def tracing_enabled() -> bool:
    """Whether the global tracer is collecting spans."""
    return _TRACER.enabled


def trace_span(name: str) -> "_Span | _NullSpan":
    """Open a named span on the global tracer (no-op while disabled)."""
    if not _TRACER.enabled:
        return _NULL_SPAN
    return _Span(_TRACER, name)


def traced(fn: F | None = None, *, name: str | None = None) -> F:
    """Decorator tracing every call of *fn* as one span.

    Works bare (``@traced``) or configured (``@traced(name="bgp.parse")``).
    The default span name is ``module.qualname`` with the ``repro.``
    prefix dropped.
    """

    def wrap(func: F) -> F:
        span_name = name
        if span_name is None:
            module = func.__module__ or "unknown"
            if module.startswith("repro."):
                module = module[len("repro."):]
            span_name = f"{module}.{func.__qualname__}"

        @functools.wraps(func)
        def wrapper(*args: object, **kwargs: object):
            with trace_span(span_name):
                return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    if fn is not None:
        return wrap(fn)
    return wrap  # type: ignore[return-value]
