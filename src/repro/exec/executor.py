"""Topological scheduling of Scenario dataset builds onto a thread pool.

The scheduler keeps a ready queue of datasets whose dependencies have
all materialised and submits them to a ``ThreadPoolExecutor``; each
completion may unlock dependents.  Workers just call
``scenario.materialise(name)`` — materialisation, per-dataset locking,
metrics, and the disk cache all live in ``Scenario._build``, so a
parallel build records exactly the same ``scenario.build.*`` timers and
counters as a serial one (plus the per-worker busy timers and the
``scenario.build.parallel`` umbrella span).

Generators release the GIL poorly, so the speedup ceiling is set by the
share of build time spent in C (pickle, json, list allocation) — in
practice the win comes from overlapping the three heavy independent
datasets (``chaos_observations``, ``ndt_tests``, ``gpdns_traceroutes``)
and, with a warm cache, overlapping pickle loads.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Callable, Iterable, TypeVar

from repro.exec.dag import dependencies, topological_order, validate_graph
from repro.obs import ambient_scope, current_handle, get_registry, trace_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.scenario import Scenario

#: Thread-name prefix for pool workers; the numeric suffix becomes the
#: per-worker timer name (``exec.worker_0.busy``).
_WORKER_PREFIX = "repro-exec"


def _worker_timer_name() -> str:
    """Metric name for the current pool worker's busy timer."""
    thread_name = threading.current_thread().name
    index = thread_name.rsplit("_", 1)[-1]
    if not index.isdigit():  # not a pool thread (direct call in tests)
        index = "0"
    return f"exec.worker_{index}.busy"


_T = TypeVar("_T")
_R = TypeVar("_R")


def parallel_map(
    func: Callable[[_T], _R],
    items: Iterable[_T],
    max_workers: int,
    label: str = "exec.map",
) -> list[_R]:
    """Apply *func* to every item on a bounded worker pool, in order.

    The dependency-free sibling of :func:`build_parallel` for
    embarrassingly-parallel fan-outs (the serve layer renders its static
    artifact plane through this).  Results come back in input order;
    the first exception propagates.  Workers record the same
    ``exec.worker_<n>.busy`` timers as DAG builds and the whole sweep
    runs under a *label* span, re-homed onto the caller's trace exactly
    like :func:`build_parallel` workers are.

    ``max_workers <= 1`` (or a single item) runs inline — no pool, no
    worker timers — which keeps the serial path allocation-free.
    """
    work = list(items)
    if max_workers <= 1 or len(work) <= 1:
        return [func(item) for item in work]

    registry = get_registry()

    with trace_span(label):
        handle = current_handle()

        def run(item: _T) -> _R:
            with ambient_scope(handle):
                with registry.timer(_worker_timer_name()).time():
                    return func(item)

        with ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix=_WORKER_PREFIX
        ) as pool:
            return list(pool.map(run, work))


def build_parallel(
    scenario: "Scenario", max_workers: int, names: list[str] | None = None
) -> list[str]:
    """Materialise datasets of *scenario* concurrently; returns build order.

    Args:
        scenario: The scenario to build; its ``_build`` locking makes
            concurrent access safe and its cache (if any) is consulted
            per dataset as usual.
        max_workers: Pool size; values below 2 still run through the
            pool for uniform metrics, just without concurrency.
        names: Datasets to build (plus their transitive dependencies,
            which the DAG schedules first); defaults to all of them.

    The returned list is the order builds *completed* in — informational
    only; dataset contents are order-independent because every
    generator is deterministic and isolated.
    """
    validate_graph()
    order = topological_order()
    if names is not None:
        wanted = set(names)
        for name in names:
            wanted.update(dependencies(name))
        order = [name for name in order if name in wanted]

    registry = get_registry()
    registry.gauge("exec.workers.max").set(max_workers)

    remaining: dict[str, set[str]] = {
        name: {dep for dep in dependencies(name) if dep in order}
        for name in order
    }
    completed: list[str] = []

    def build_one(name: str, handle: "tuple[str, str, bool] | None") -> str:
        # materialise() (not getattr) so a degraded dataset in lenient
        # mode doesn't abort the sweep; strict failures still re-raise
        # through future.result() below.  The handle re-homes the worker
        # thread into the submitter's trace, so dataset-build spans
        # parent onto the ``scenario.build.parallel`` umbrella span even
        # though contextvars do not cross thread-pool boundaries.
        with ambient_scope(handle):
            with registry.timer(_worker_timer_name()).time():
                scenario.materialise(name)
        return name

    with trace_span("scenario.build.parallel"):
        handle = current_handle()
        with ThreadPoolExecutor(
            max_workers=max(1, max_workers), thread_name_prefix=_WORKER_PREFIX
        ) as pool:
            in_flight: set[Future[str]] = set()

            def submit_ready() -> None:
                ready = [name for name, deps in remaining.items() if not deps]
                for name in ready:
                    del remaining[name]
                    in_flight.add(pool.submit(build_one, name, handle))

            submit_ready()
            while in_flight:
                done, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    name = future.result()  # re-raises builder exceptions
                    completed.append(name)
                    for deps in remaining.values():
                        deps.discard(name)
                submit_ready()

    if remaining:  # unreachable with a validated DAG; belt and braces
        raise RuntimeError(f"datasets never became ready: {sorted(remaining)}")
    return completed
