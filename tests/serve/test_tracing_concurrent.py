"""Request tracing under concurrency: ids, sampling, artifact linkage.

The satellite test the observability PR promises: eight threads against
a server with ``--trace-sample-rate 1.0`` must produce unique request
ids, byte-identical ``/v1/report`` bodies, spec-valid ``repro.trace/1``
artifacts with intact parent/child structure, and honoured client
``traceparent`` headers — tracing must observe the server, never change
what it serves.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import parse_traceparent, trace_from_json
from repro.serve.aio import AioServer
from tests.serve.conftest import boot, seeded_context


def _get(server, path, headers=None):
    request = urllib.request.Request(server.url + path, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


def _wait_for_trace(trace_dir, trace_id, timeout=10.0):
    """The trace artifact is written after the response; poll briefly."""
    path = trace_dir / f"trace-{trace_id}.json"
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if path.exists():
            return json.loads(path.read_text(encoding="utf-8"))
        time.sleep(0.01)
    raise AssertionError(f"trace artifact never appeared: {path}")


def _assert_span_tree(doc):
    """One root, every parent resolves, one shared trace id."""
    spans = doc["spans"]
    assert spans
    ids = {span["span_id"] for span in spans}
    assert len(ids) == len(spans)  # span ids are unique
    assert {span["trace_id"] for span in spans} == {doc["trace_id"]}
    roots = [s for s in spans if s["parent_id"] is None or s["parent_id"] not in ids]
    assert len(roots) == 1
    for span in spans:
        if span is not roots[0]:
            assert span["parent_id"] in ids
    return roots[0]


@pytest.fixture(scope="module")
def traced_server(scenario, tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("traces")
    server = AioServer(
        seeded_context(scenario), trace_sample_rate=1.0, trace_dir=trace_dir
    )
    stop = boot(server)
    yield server, trace_dir
    stop()


# -- eight-thread integrity ---------------------------------------------------


def test_eight_threads_unique_ids_and_identical_bodies(traced_server):
    server, trace_dir = traced_server
    barrier = threading.Barrier(8)
    results = []
    lock = threading.Lock()

    def worker():
        barrier.wait()
        status, headers, body = _get(server, "/v1/report")
        with lock:
            results.append((status, headers, body))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)

    assert len(results) == 8
    assert {status for status, _, _ in results} == {200}
    # sampling on must not perturb the bytes served
    assert len({body for _, _, body in results}) == 1
    # every response carries its own request id and its own trace
    request_ids = [headers["X-Request-Id"] for _, headers, _ in results]
    assert len(set(request_ids)) == 8
    parents = [parse_traceparent(headers["traceparent"]) for _, headers, _ in results]
    assert all(p is not None and p.sampled for p in parents)
    assert len({p.trace_id for p in parents}) == 8

    # each request exported its own artifact with an intact span tree
    # rooted at the span id the response traceparent promised
    for _, headers, _ in results:
        parsed = parse_traceparent(headers["traceparent"])
        doc = trace_from_json(
            json.dumps(_wait_for_trace(trace_dir, parsed.trace_id))
        )
        assert doc["request_id"] == headers["X-Request-Id"]
        root = _assert_span_tree(doc)
        assert root["name"] == "serve.request.report"
        assert root["span_id"] == parsed.span_id


def test_client_traceparent_is_honoured(traced_server):
    server, trace_dir = traced_server
    client_trace = "ab12cd34ef567890" * 2
    client_span = "1234567890abcdef"
    status, headers, _ = _get(
        server,
        "/v1/exhibit/fig01",
        {"traceparent": f"00-{client_trace}-{client_span}-01"},
    )
    assert status == 200
    returned = parse_traceparent(headers["traceparent"])
    # same trace continues; the server answers with its own span id
    assert returned.trace_id == client_trace
    assert returned.span_id != client_span
    assert returned.sampled is True

    doc = _wait_for_trace(trace_dir, client_trace)
    assert doc["trace_id"] == client_trace
    root = _assert_span_tree(doc)
    # the request's root span parents onto the caller's span
    assert root["parent_id"] == client_span
    assert root["span_id"] == returned.span_id


def test_unsampled_client_traceparent_is_continued_without_recording(traced_server):
    server, trace_dir = traced_server
    client_trace = "0123456789abcdef" * 2
    status, headers, _ = _get(
        server,
        "/healthz",
        {"traceparent": f"00-{client_trace}-{'9' * 16}-00"},
    )
    assert status == 200
    returned = parse_traceparent(headers["traceparent"])
    assert returned.trace_id == client_trace
    assert returned.sampled is False  # caller's decision wins over rate 1.0
    time.sleep(0.3)  # export (if it wrongly happened) runs post-response
    assert not (trace_dir / f"trace-{client_trace}.json").exists()


def test_client_request_id_is_echoed(traced_server):
    server, _ = traced_server
    status, headers, _ = _get(
        server, "/healthz", {"X-Request-Id": "req-from-the-caller"}
    )
    assert status == 200
    assert headers["X-Request-Id"] == "req-from-the-caller"


# -- serve -> render linkage --------------------------------------------------


def test_trace_links_serve_request_and_report_render(served, tmp_path):
    # A sampled first /v1/report on a lazily filled plane renders the
    # artifact: the render's span sits under the request's root span.
    # (Dataset builds happen before the server listens; their spans'
    # linkage across executor threads is covered in tests/exec.)
    server = served(trace_sample_rate=1.0, trace_dir=tmp_path)
    status, headers, _ = _get(server, "/v1/report")
    assert status == 200
    parsed = parse_traceparent(headers["traceparent"])
    doc = trace_from_json(json.dumps(_wait_for_trace(tmp_path, parsed.trace_id)))
    root = _assert_span_tree(doc)
    assert root["name"] == "serve.request.report"
    renders = [
        span for span in doc["spans"]
        if span["name"] == "serve.artifacts.render.report"
    ]
    assert [span["parent_id"] for span in renders] == [root["span_id"]]
