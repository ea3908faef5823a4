"""End-to-end HTTP tests: envelopes, the lazy plane, ETags, concurrency, shutdown.

These run against single-process servers, which build their world
before they listen and fill their artifact plane as each static path is
first requested.  The module-scoped ``warm_server`` is seeded with the
session scenario, so these tests exercise the full network stack without
paying extra scenario builds.  Tests that count or race first renders
take a fresh server from the ``served`` factory; the boot-time build and
drain on shutdown use a small parameter set.
"""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.report import render_report
from repro.obs import get_registry
from repro.serve import ScenarioPool, ServeContext, handlers
from repro.serve.aio import AioServer
from tests.serve.conftest import boot, seeded_context, wait_for_counter

SMALL = {"ndt_tests_per_month": 1, "gpdns_samples_per_month": 1}


def _get(server, path, headers=None):
    """(status, headers, body) for GET *path* against *server*."""
    request = urllib.request.Request(server.url + path, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


@pytest.fixture(scope="module")
def warm_server(scenario):
    server = AioServer(seeded_context(scenario))  # share the session world
    stop = boot(server)
    yield server
    stop()


# -- endpoint payloads -------------------------------------------------------


def test_healthz(warm_server):
    status, _, body = _get(warm_server, "/healthz")
    assert status == 200
    data = json.loads(body)["data"]
    assert set(data) == {"status", "exhibits"}
    assert data["status"] == "ok"
    assert data["exhibits"] == 23


def test_exhibits_listing_matches_cli_catalog(warm_server):
    from repro.core.exhibit import exhibit_catalog

    status, _, body = _get(warm_server, "/v1/exhibits")
    assert status == 200
    assert json.loads(body)["data"]["exhibits"] == exhibit_catalog()


def test_exhibit_payload(warm_server):
    status, headers, body = _get(warm_server, "/v1/exhibit/fig01")
    assert status == 200
    assert headers["Content-Type"].startswith("application/json")
    data = json.loads(body)["data"]
    assert data["id"] == "fig01"
    assert data["columns"][0] in data["rows"][0]
    assert data["rendered"].startswith("FIG01:")


def test_report_matches_cli_rendering(warm_server, scenario):
    status, _, body = _get(warm_server, "/v1/report")
    assert status == 200
    assert json.loads(body)["data"]["report"] == render_report(scenario)


def test_report_is_replayed_byte_identically(warm_server):
    _, first_headers, first_body = _get(warm_server, "/v1/report")
    _, second_headers, second_body = _get(warm_server, "/v1/report")
    assert first_body == second_body
    assert first_headers["ETag"] == second_headers["ETag"]


def test_narrative(warm_server):
    status, _, body = _get(warm_server, "/v1/narrative")
    assert status == 200
    data = json.loads(body)["data"]
    assert [f["topic"] for f in data["findings"]] == [
        "infrastructure", "interdomain", "performance", "dns",
    ]
    assert data["rendered"].count("* [") == 4


def test_scorecard(warm_server):
    status, _, body = _get(warm_server, "/v1/scorecard/ve")
    assert status == 200
    data = json.loads(body)["data"]
    assert data["country"] == "VE"
    assert data["panels"] == 5
    assert data["available"] == 5
    assert "5/5 panels available" in data["rendered"]


def test_metrics_endpoint_is_text(warm_server):
    status, headers, body = _get(warm_server, "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    # serve.requests is recorded by this very request.
    assert b"serve.requests" in body


# -- error envelopes ---------------------------------------------------------


def test_unknown_route_envelope(warm_server):
    status, headers, body = _get(warm_server, "/v1/nope")
    assert status == 404
    assert headers["Content-Type"].startswith("application/json")
    error = json.loads(body)["error"]
    assert error["status"] == 404
    assert "/v1/nope" in error["message"]


def test_unknown_exhibit_envelope_mirrors_cli_did_you_mean(warm_server):
    status, _, body = _get(warm_server, "/v1/exhibit/tabel1")
    assert status == 404
    error = json.loads(body)["error"]
    assert error["message"] == "unknown exhibit: tabel1"
    assert error["hint"] == "did you mean: table1?"
    assert "fig01" in error["known"] and len(error["known"]) == 23


def test_unknown_country_envelope(warm_server):
    status, _, body = _get(warm_server, "/v1/scorecard/xx")
    assert status == 404
    assert json.loads(body)["error"]["message"] == "unknown country code: XX"


def test_non_lacnic_country_envelope(warm_server):
    status, _, body = _get(warm_server, "/v1/scorecard/us")
    assert status == 422
    assert "outside the LACNIC region" in json.loads(body)["error"]["message"]


def test_post_gets_405_envelope(warm_server):
    request = urllib.request.Request(
        warm_server.url + "/v1/report", data=b"{}", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=60)
    assert excinfo.value.code == 405
    error = json.loads(excinfo.value.read())["error"]
    assert error["allowed"] == ["GET"]


# -- the lazy plane and ETags ------------------------------------------------


def test_etag_304_roundtrip(warm_server):
    status, headers, body = _get(warm_server, "/v1/exhibit/fig02")
    assert status == 200
    etag = headers["ETag"]
    assert etag.startswith('"') and body

    status, headers, body = _get(
        warm_server, "/v1/exhibit/fig02", {"If-None-Match": etag}
    )
    assert status == 304
    assert body == b""
    assert headers["ETag"] == etag
    wait_for_counter("serve.response.not_modified", 1)


def test_stale_etag_gets_full_body(warm_server):
    status, _, body = _get(
        warm_server, "/v1/exhibit/fig02", {"If-None-Match": '"stale"'}
    )
    assert status == 200
    assert body


def test_second_request_for_a_static_path_is_a_plane_hit(served, monkeypatch):
    # The first request renders the path into the plane; every later
    # one is served from it: no handler run, one serve.artifact.hit each.
    # Handler calls are counted directly: the session scenario may
    # already hold fig03, so exhibit.runs cannot tell a render apart.
    handle_exhibit = handlers.handle_exhibit
    calls = []

    def counted(ctx, exhibit_id):
        calls.append(exhibit_id)
        return handle_exhibit(ctx, exhibit_id)

    monkeypatch.setattr(handlers, "handle_exhibit", counted)
    server = served()
    registry = get_registry()
    _, first_headers, first = _get(server, "/v1/exhibit/fig03")
    assert calls == ["fig03"]
    assert registry.counter("serve.artifact.hit").value == 0
    for hits in (1, 2):
        _, headers, body = _get(server, "/v1/exhibit/fig03")
        assert (body, headers["ETag"]) == (first, first_headers["ETag"])
        wait_for_counter("serve.artifact.hit", hits)
        assert registry.counter("serve.artifact.hit").value == hits
    assert calls == ["fig03"]


def test_request_metrics_recorded_per_endpoint(served):
    # First requests: every one takes the live path and its timer.
    server = served()
    registry = get_registry()
    _get(server, "/v1/exhibit/fig01")
    _get(server, "/v1/report")
    _get(server, "/healthz")
    assert registry.counter("serve.requests").value == 3
    assert registry.timer("serve.request.exhibit").count == 1
    assert registry.timer("serve.request.report").count == 1
    assert registry.timer("serve.request.healthz").count == 1


# -- concurrency -------------------------------------------------------------


def test_concurrent_requests_are_byte_identical(served):
    # Eight threads race on a path the plane has not rendered yet: every
    # body must be the same bytes whether it was rendered or replayed.
    server = served()
    barrier = threading.Barrier(8)
    results = []
    lock = threading.Lock()

    def worker():
        barrier.wait()
        status, headers, body = _get(server, "/v1/exhibit/fig01")
        with lock:
            results.append((status, headers.get("ETag"), body))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)

    assert len(results) == 8
    assert {status for status, _, _ in results} == {200}
    assert len({body for _, _, body in results}) == 1
    assert len({etag for _, etag, _ in results}) == 1


def test_server_builds_its_world_before_it_listens(served):
    # The cold SMALL world is built by start(), before the listener
    # exists: by the time the server accepts, the build is done, and
    # eight concurrent first requests build nothing more.
    server = served(params=SMALL)
    registry = get_registry()
    assert registry.timer("serve.pool.build").count == 1
    assert registry.counter("scenario.dataset.built").value == 16
    barrier = threading.Barrier(8)
    results = []
    lock = threading.Lock()

    def worker():
        barrier.wait()
        status, _, body = _get(server, "/v1/exhibit/fig01")
        with lock:
            results.append((status, body))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)

    assert {status for status, _ in results} == {200}
    assert len({body for _, body in results}) == 1
    assert registry.timer("serve.pool.build").count == 1
    assert registry.counter("scenario.dataset.built").value == 16


def test_failed_world_build_keeps_the_server_from_listening(monkeypatch):
    # A strict build that raises fails start() itself: the server never
    # creates its listener, so no request can meet the broken world.
    def broken():
        raise OSError("generator broken")

    monkeypatch.setattr("repro.core.scenario.synthesize_macro", broken)
    pool = ScenarioPool(strict=True)
    server = AioServer(ServeContext(pool=pool, params=dict(SMALL)))
    with pytest.raises(OSError, match="generator broken"):
        asyncio.run(server.start())
    assert server._listener is None


def test_graceful_shutdown_drains_inflight_requests(scenario, monkeypatch):
    # A request that arrives before shutdown must be fully answered: the
    # drain waits for the in-flight /v1/report (its handler slowed by a
    # second) to produce its 200 before the server thread returns.
    render_report = handlers.handle_report
    entered = threading.Event()

    def slow_report(ctx):
        entered.set()
        time.sleep(1.0)
        return render_report(ctx)

    monkeypatch.setattr(handlers, "handle_report", slow_report)
    server = AioServer(seeded_context(scenario, SMALL))
    stop = boot(server)
    result = {}

    def slow_request():
        status, _, body = _get(server, "/v1/report")
        result["status"] = status
        result["body"] = body

    requester = threading.Thread(target=slow_request)
    requester.start()
    assert entered.wait(timeout=30)  # the request reached the handler
    stop()  # must block until the response is written
    requester.join(timeout=10)

    assert result.get("status") == 200
    assert b"report" in result.get("body", b"")


# -- observability endpoints -------------------------------------------------


def test_metrics_negotiates_openmetrics(warm_server):
    from repro.obs import parse_openmetrics
    from repro.obs.openmetrics import CONTENT_TYPE

    status, headers, body = _get(
        warm_server, "/metrics", {"Accept": "application/openmetrics-text"}
    )
    assert status == 200
    assert headers["Content-Type"] == CONTENT_TYPE
    families = parse_openmetrics(body.decode("utf-8"))
    # the counter this very request incremented, as a spec-valid family
    assert families["serve_requests"].type == "counter"
    histograms = [f for f in families.values() if f.type == "histogram"]
    assert all(f.unit == "seconds" for f in histograms)

