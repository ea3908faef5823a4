"""A traced server under concurrency: span ids, linkage, identical bytes.

A server is traced the way every command is (:func:`enable_tracing`, the
CLI's ``--trace``): each live request records one
``serve.request.<endpoint>`` span on its handler thread, and the first
request for a static path renders the artifact inside that span.
Plane hits are never spanned.  Tracing must observe the server, never
change what it serves.
"""

import threading
import urllib.request

from repro.obs import enable_tracing, get_tracer


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=60) as response:
        return response.status, response.read()


def _report_spans():
    """(all spans, ``/v1/report`` request spans, its render spans)."""
    spans = get_tracer().finished()
    requests = [s for s in spans if s.name == "serve.request.report"]
    renders = [s for s in spans if s.name == "serve.artifacts.render.report"]
    return spans, requests, renders


# -- eight-thread integrity ---------------------------------------------------


def test_eight_threads_unique_ids_and_identical_bodies(served):
    # Eight threads race on a report the plane has not rendered yet:
    # tracing must not perturb the bytes, every live request is its own
    # span with its own id, and each render sits under the request that
    # ran it.
    enable_tracing(True)
    server = served()
    barrier = threading.Barrier(8)
    results = []
    lock = threading.Lock()

    def worker():
        barrier.wait()
        result = _get(server, "/v1/report")
        with lock:
            results.append(result)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)

    assert len(results) == 8
    assert {status for status, _ in results} == {200}
    assert len({body for _, body in results}) == 1

    spans, requests, renders = _report_spans()
    assert len({span.span_id for span in spans}) == len(spans)
    assert {span.trace_id for span in spans} == {get_tracer().trace_id}
    # A request parsed after the first render landed is a plane hit and
    # records nothing; every live one is a root with exactly one render.
    assert 1 <= len(requests) <= 8
    assert all(request.parent_id is None for request in requests)
    assert sorted(render.parent_id for render in renders) == sorted(
        request.span_id for request in requests
    )


# -- serve -> render linkage --------------------------------------------------


def test_trace_links_serve_request_and_report_render(served):
    # The first /v1/report on a lazily filled plane renders the artifact
    # inside the request's span, on the same handler thread; the second
    # is a plane hit with the same bytes and no span.
    enable_tracing(True)
    server = served()
    first = _get(server, "/v1/report")
    assert first[0] == 200
    assert _get(server, "/v1/report") == first

    _, requests, renders = _report_spans()
    (request,) = requests
    (render,) = renders
    assert request.parent_id is None
    assert render.parent_id == request.span_id
    assert render.depth == request.depth + 1
    assert render.thread == request.thread
    assert render.trace_id == request.trace_id == get_tracer().trace_id
