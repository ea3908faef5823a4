"""Request-scoped trace context: W3C ``traceparent`` and request ids.

One HTTP request (or one CLI command) owns a :class:`TraceContext` — the
trace id every span it touches belongs to, the id of the span new child
spans should parent onto, whether the trace is *sampled* (spans are
recorded even when global tracing is off), and the correlation
``request_id`` stamped into structured log lines and the
``X-Request-Id`` response header.

The context travels in a :mod:`contextvars` variable, so it follows the
logical request: handlers and the scenario work they run on the same
thread.

Wire format (https://www.w3.org/TR/trace-context/)::

    traceparent: 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>

Incoming headers are **honoured**: the server continues the caller's
trace (same trace id, caller's span id as parent, caller's sampled
flag) instead of starting a fresh one.  Ids are unique per process —
a random per-process base mixed with a monotone counter — but the
*sampling decision* for a locally-started trace is a pure function of
the trace id and the sample rate, so replaying a trace id replays its
decision.
"""

from __future__ import annotations

import itertools
import os
import re
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Iterator

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)

_MASK64 = (1 << 64) - 1

#: Random per-process base: ids stay unique across processes without a
#: shared allocator, while staying cheap (no urandom read per id).
_ID_BASE = int.from_bytes(os.urandom(8), "big")
_ID_COUNTER = itertools.count(1)
_ID_LOCK = threading.Lock()


def _mix64(n: int) -> int:
    """splitmix64 finaliser: a cheap, well-distributed 64-bit mix."""
    n = (n + 0x9E3779B97F4A7C15) & _MASK64
    n = ((n ^ (n >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    n = ((n ^ (n >> 27)) * 0x94D049BB133111EB) & _MASK64
    return n ^ (n >> 31)


def _next_id64() -> int:
    with _ID_LOCK:
        n = next(_ID_COUNTER)
    value = _mix64(_ID_BASE ^ _mix64(n))
    return value or 1  # all-zero ids are invalid in W3C trace context


def new_trace_id() -> str:
    """A fresh 32-hex-digit (128-bit) trace id."""
    return f"{_next_id64():016x}{_next_id64():016x}"


def new_span_id() -> str:
    """A fresh 16-hex-digit (64-bit) span id."""
    return f"{_next_id64():016x}"


def new_request_id() -> str:
    """A fresh correlation id for one request (``req-`` + 16 hex)."""
    return f"req-{_next_id64():016x}"


def sampling_decision(trace_id: str, sample_rate: float) -> bool:
    """Deterministic head-sampling: a pure function of (trace id, rate).

    The low 64 bits of the trace id are mixed and compared against the
    rate, so the same trace id always lands on the same side of the
    threshold — two observers with the same rate agree on every trace.
    """
    if sample_rate >= 1.0:
        return True
    if sample_rate <= 0.0:
        return False
    bucket = _mix64(int(trace_id[-16:], 16)) / 2.0**64
    return bucket < sample_rate


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The ambient trace identity of the current logical request.

    Attributes:
        trace_id: 32-hex W3C trace id shared by every span in the trace.
        span_id: Id of the span new root-level spans should parent onto
            (the server's request span once it opens, or the remote
            caller's span id before that).
        sampled: Whether spans in this context are recorded even while
            global tracing is disabled.
        request_id: Correlation id for logs and ``X-Request-Id``.
        remote: True when the trace was continued from an incoming
            ``traceparent`` header rather than started here.
        accept: The request's ``Accept`` header (content negotiation for
            handlers that render multiple formats, e.g. ``/metrics``).
    """

    trace_id: str
    span_id: str
    sampled: bool = False
    request_id: str = ""
    remote: bool = False
    accept: str = field(default="", compare=False)

    def traceparent(self) -> str:
        """This context as an outgoing ``traceparent`` header value."""
        flags = "01" if self.sampled else "00"
        return f"00-{self.trace_id}-{self.span_id}-{flags}"

    def child(self, span_id: str) -> "TraceContext":
        """The same trace with *span_id* as the new parent."""
        return replace(self, span_id=span_id)


def parse_traceparent(header: str) -> TraceContext | None:
    """A :class:`TraceContext` from an incoming header, or None if invalid.

    Per the W3C spec an unparseable header is ignored (the receiver
    restarts the trace) rather than failing the request; version ``ff``
    and all-zero ids are invalid.
    """
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    version, trace_id, span_id, flags = match.groups()
    if version == "ff" or set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    return TraceContext(
        trace_id=trace_id,
        span_id=span_id,
        sampled=bool(int(flags, 16) & 0x01),
        remote=True,
    )


#: The ambient context; None outside any request/command scope.
_CURRENT: ContextVar[TraceContext | None] = ContextVar(
    "repro_trace_context", default=None
)


def current_context() -> TraceContext | None:
    """The ambient :class:`TraceContext`, or None."""
    return _CURRENT.get()


def start_request_context(
    traceparent: str | None = None,
    request_id: str | None = None,
    sample_rate: float = 0.0,
    accept: str = "",
) -> TraceContext:
    """The context for one incoming request.

    An incoming ``traceparent`` is honoured verbatim — same trace id,
    caller's span id as parent, caller's sampled bit.  Otherwise a fresh
    trace starts here and :func:`sampling_decision` decides recording.
    An incoming ``X-Request-Id`` is reused so the caller can correlate.
    """
    ctx = parse_traceparent(traceparent) if traceparent else None
    if ctx is None:
        trace_id = new_trace_id()
        ctx = TraceContext(
            trace_id=trace_id,
            span_id=new_span_id(),
            sampled=sampling_decision(trace_id, sample_rate),
        )
    return replace(
        ctx,
        request_id=request_id if request_id else new_request_id(),
        accept=accept,
    )


@contextmanager
def use_context(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Install *ctx* as the ambient context for the ``with`` block."""
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)
