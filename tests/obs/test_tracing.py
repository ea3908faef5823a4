"""Tests for the span tracer: ids, nesting, threading, disabled-path overhead."""

import threading
import time

from repro.obs import (
    Tracer,
    enable_tracing,
    get_tracer,
    trace_span,
    traced,
    tracing_enabled,
)
from repro.obs.tracing import _NULL_SPAN, new_span_id, new_trace_id


def test_tracing_disabled_by_default():
    assert not tracing_enabled()


def test_disabled_trace_span_is_shared_noop():
    # No allocation on the disabled path: the same singleton every time.
    assert trace_span("any.name.here") is _NULL_SPAN
    assert trace_span("other.name.here") is _NULL_SPAN
    with trace_span("any.name.here"):
        pass
    assert get_tracer().finished() == []


def test_spans_record_when_enabled():
    enable_tracing(True)
    with trace_span("outer.build.run"):
        time.sleep(0.001)
    records = get_tracer().finished()
    assert [r.name for r in records] == ["outer.build.run"]
    assert records[0].duration >= 0.001
    assert records[0].depth == 0


def test_nested_spans_track_depth():
    enable_tracing(True)
    with trace_span("level.zero.run"):
        with trace_span("level.one.run"):
            with trace_span("level.two.run"):
                pass
        with trace_span("level.one.again"):
            pass
    records = get_tracer().finished()
    depths = {r.name: r.depth for r in records}
    assert depths == {
        "level.zero.run": 0,
        "level.one.run": 1,
        "level.two.run": 2,
        "level.one.again": 1,
    }
    # finished() is start-ordered: pre-order traversal of the tree.
    assert [r.name for r in records] == [
        "level.zero.run", "level.one.run", "level.two.run", "level.one.again",
    ]


def test_nested_duration_contains_child():
    enable_tracing(True)
    with trace_span("parent.span.run"):
        with trace_span("child.span.run"):
            time.sleep(0.002)
    by_name = {r.name: r for r in get_tracer().finished()}
    assert by_name["parent.span.run"].duration >= by_name["child.span.run"].duration


def test_threads_keep_separate_stacks():
    tracer = Tracer(enabled=True)
    barrier = threading.Barrier(2)

    def worker(label: str) -> None:
        with tracer.span(f"{label}.outer.run"):
            barrier.wait(timeout=5)
            with tracer.span(f"{label}.inner.run"):
                pass

    threads = [
        threading.Thread(target=worker, args=(lbl,), name=lbl)
        for lbl in ("alpha", "beta")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records = tracer.finished()
    assert len(records) == 4
    # Each thread's inner span sits at depth 1 despite running concurrently.
    for record in records:
        expected = 1 if ".inner." in record.name else 0
        assert record.depth == expected
        assert record.thread == record.name.split(".")[0]


def test_traced_decorator_bare_and_named():
    enable_tracing(True)

    @traced
    def plain() -> int:
        return 1

    @traced(name="custom.span.name")
    def named() -> int:
        return 2

    assert plain() == 1
    assert named() == 2
    names = [r.name for r in get_tracer().finished()]
    assert any("plain" in n for n in names)
    assert "custom.span.name" in names


def test_traced_decorator_noop_when_disabled():
    calls = []

    @traced
    def fn() -> None:
        calls.append(1)

    fn()
    assert calls == [1]
    assert get_tracer().finished() == []


def test_disabled_overhead_is_negligible():
    """The disabled span path must stay within noise of a bare call."""

    def bare() -> int:
        total = 0
        for i in range(2000):
            total += i
        return total

    def spanned() -> int:
        total = 0
        with trace_span("overhead.check.run"):
            for i in range(2000):
                total += i
        return total

    def best_of(fn, rounds=200):
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    bare_t = best_of(bare)
    spanned_t = best_of(spanned)
    # One flag check + one singleton context manager across 2000 iterations
    # of real work: allow generous CI jitter but catch accidental always-on
    # tracing (which costs >10x this bound).
    assert spanned_t < bare_t * 1.5 + 1e-4


def test_tracer_reset_clears_spans():
    enable_tracing(True)
    with trace_span("some.span.run"):
        pass
    assert get_tracer().finished()
    get_tracer().reset()
    assert get_tracer().finished() == []


# -- ids ----------------------------------------------------------------------


def test_id_shapes():
    assert len(new_trace_id()) == 32
    assert int(new_trace_id(), 16) != 0
    assert len(new_span_id()) == 16


def test_ids_are_unique():
    ids = {new_span_id() for _ in range(1000)}
    assert len(ids) == 1000


def test_ids_are_unique_across_threads():
    collected: list[str] = []
    lock = threading.Lock()

    def worker():
        local = [new_trace_id() for _ in range(200)]
        with lock:
            collected.extend(local)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(collected)) == len(collected) == 800


def test_spans_share_the_session_trace_and_link_to_their_parent():
    enable_tracing(True)
    with trace_span("outer.span.run"):
        with trace_span("inner.span.run"):
            pass
    outer, inner = get_tracer().finished()
    assert {inner.trace_id, outer.trace_id} == {get_tracer().trace_id}
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
