"""Tests for W3C trace contexts, ids, and deterministic sampling."""

import threading

from repro.obs.context import (
    TraceContext,
    current_context,
    new_request_id,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    sampling_decision,
    start_request_context,
    use_context,
)

# -- ids ----------------------------------------------------------------------


def test_id_shapes():
    assert len(new_trace_id()) == 32
    assert int(new_trace_id(), 16) != 0
    assert len(new_span_id()) == 16
    assert new_request_id().startswith("req-")
    assert len(new_request_id()) == len("req-") + 16


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


# -- traceparent parse/format -------------------------------------------------


def test_traceparent_roundtrip():
    ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8, sampled=True)
    header = ctx.traceparent()
    assert header == f"00-{'ab' * 16}-{'cd' * 8}-01"
    parsed = parse_traceparent(header)
    assert parsed is not None
    assert parsed.trace_id == ctx.trace_id
    assert parsed.span_id == ctx.span_id
    assert parsed.sampled is True
    assert parsed.remote is True


def test_traceparent_unsampled_flags():
    ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8, sampled=False)
    assert ctx.traceparent().endswith("-00")
    parsed = parse_traceparent(ctx.traceparent())
    assert parsed is not None and parsed.sampled is False


def test_parse_rejects_malformed_headers():
    assert parse_traceparent("") is None
    assert parse_traceparent("nonsense") is None
    assert parse_traceparent("00-short-cdcdcdcdcdcdcdcd-01") is None
    # version ff is explicitly invalid
    assert parse_traceparent(f"ff-{'ab' * 16}-{'cd' * 8}-01") is None
    # all-zero trace and span ids are invalid
    assert parse_traceparent(f"00-{'0' * 32}-{'cd' * 8}-01") is None
    assert parse_traceparent(f"00-{'ab' * 16}-{'0' * 16}-01") is None


def test_parse_is_case_insensitive_and_strips():
    header = f"  00-{'AB' * 16}-{'CD' * 8}-01  "
    parsed = parse_traceparent(header)
    assert parsed is not None
    assert parsed.trace_id == "ab" * 16


# -- sampling -----------------------------------------------------------------


def test_sampling_decision_extremes():
    trace_id = new_trace_id()
    assert sampling_decision(trace_id, 1.0) is True
    assert sampling_decision(trace_id, 0.0) is False


def test_sampling_decision_is_deterministic_per_trace_id():
    trace_id = new_trace_id()
    first = sampling_decision(trace_id, 0.5)
    assert all(sampling_decision(trace_id, 0.5) == first for _ in range(10))


def test_sampling_rate_is_roughly_honoured():
    hits = sum(sampling_decision(new_trace_id(), 0.3) for _ in range(2000))
    assert 0.2 < hits / 2000 < 0.4


# -- request contexts ---------------------------------------------------------


def test_start_request_context_fresh():
    ctx = start_request_context(sample_rate=1.0)
    assert len(ctx.trace_id) == 32
    assert ctx.sampled is True
    assert ctx.remote is False
    assert ctx.request_id.startswith("req-")


def test_start_request_context_honours_incoming_traceparent():
    incoming = f"00-{'ab' * 16}-{'cd' * 8}-01"
    ctx = start_request_context(traceparent=incoming, sample_rate=0.0)
    # the caller's trace continues: same trace id, caller sampled bit
    assert ctx.trace_id == "ab" * 16
    assert ctx.span_id == "cd" * 8
    assert ctx.sampled is True  # from the header, not the 0.0 rate
    assert ctx.remote is True


def test_start_request_context_reuses_incoming_request_id():
    ctx = start_request_context(request_id="req-deadbeef")
    assert ctx.request_id == "req-deadbeef"


def test_start_request_context_ignores_bad_traceparent():
    ctx = start_request_context(traceparent="garbage", sample_rate=0.0)
    assert ctx.remote is False
    assert len(ctx.trace_id) == 32


# -- ambient installation -----------------------------------------------------


def test_use_context_installs_and_restores():
    assert current_context() is None
    ctx = start_request_context()
    with use_context(ctx):
        assert current_context() is ctx
    assert current_context() is None


