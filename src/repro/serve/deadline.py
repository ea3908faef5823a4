"""Per-request deadlines as a thread-local scope.

The request handler opens a :func:`deadline_scope` around rendering; any
blocking wait underneath (the scenario pool's build wait, notably) calls
:func:`remaining` to bound its timeout instead of blocking forever.  A
request whose deadline expires surfaces :class:`DeadlineExpired`, which
the server maps to a 503 with ``Retry-After`` and counts in
``serve.deadline.expired``.

Thread-local, not contextvar: each live request's handler runs on one
executor thread, and the waits consulting the deadline run on that same
thread.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs import get_registry

_LOCAL = threading.local()


class DeadlineExpired(RuntimeError):
    """A request exceeded its deadline before its work completed."""

    def __init__(self, budget_seconds: float):
        self.budget_seconds = budget_seconds
        super().__init__(
            f"request deadline of {budget_seconds:.1f}s expired"
        )


@contextmanager
def deadline_scope(seconds: float | None) -> Iterator[None]:
    """Arm a deadline for the current thread; ``None`` disarms (no limit)."""
    previous = getattr(_LOCAL, "deadline", None)
    _LOCAL.deadline = (
        None if seconds is None else (time.monotonic() + seconds, seconds)
    )
    try:
        yield
    finally:
        _LOCAL.deadline = previous


def remaining() -> float | None:
    """Seconds left in the current request's deadline, or ``None``.

    Returns ``None`` when no deadline is armed (waits block freely).
    Raises nothing itself — an expired deadline returns ``0.0`` and the
    caller decides when to give up (see :func:`check`).
    """
    armed = getattr(_LOCAL, "deadline", None)
    if armed is None:
        return None
    expires_at, _budget = armed
    return max(0.0, expires_at - time.monotonic())


def check() -> None:
    """Raise :class:`DeadlineExpired` if the armed deadline has passed."""
    armed = getattr(_LOCAL, "deadline", None)
    if armed is None:
        return
    expires_at, budget = armed
    if time.monotonic() >= expires_at:
        get_registry().counter("serve.deadline.expired").inc()
        raise DeadlineExpired(budget)
