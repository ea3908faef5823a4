"""Shared instrumentation idioms for the dataset pipeline.

Parsers and generators should record *batch-level* metrics -- one
counter increment per parse call carrying the row count, never one per
row -- so instrumentation stays invisible in benchmarks.  This module
packages the two idioms every call site needs:

* :func:`timed` -- run a thunk under a span and a same-named timer.
* :func:`counting` -- wrap an iterator, adding its final item count to a
  counter when the iterator is exhausted or closed.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, TypeVar

from repro.obs.metrics import get_registry
from repro.obs.tracing import trace_span

T = TypeVar("T")


def timed(name: str, thunk: Callable[[], T]) -> T:
    """Run *thunk* inside span *name*, recording its wall time.

    The duration always lands in the registry timer *name*; the span is
    additionally recorded when tracing is enabled.  Used for every
    ``Scenario`` dataset build and exhibit run.
    """
    with trace_span(name):
        t0 = time.perf_counter()
        value = thunk()
        get_registry().timer(name).observe(time.perf_counter() - t0)
    return value


def counting(counter_name: str, items: Iterable[T]) -> Iterator[T]:
    """Yield from *items*, then add the item count to *counter_name*.

    The count is recorded once, when iteration finishes (including early
    ``close()`` of a partially consumed generator), so wrapping a
    million-row stream costs one integer addition per row and one
    counter update total.
    """
    count = 0
    try:
        for item in items:
            count += 1
            yield item
    finally:
        if count:
            get_registry().counter(counter_name).inc(count)
