"""POST /v1/ingest: receipts, error mapping, and the surface hot-swap."""

import datetime as dt
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.mlab.ndt import NDTResult
from repro.obs import get_registry
from repro.serve import ScenarioPool, ServeContext
from repro.serve.aio import AioServer
from repro.serve.ingestor import enable_ingest
from tests.conftest import open_files_under
from tests.serve.conftest import boot

SMALL = {"ndt_tests_per_month": 2, "gpdns_samples_per_month": 1}


def _post(server, path, body=b"", headers=None):
    request = urllib.request.Request(
        server.url + path, data=body, headers=headers or {}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=60) as response:
        return response.status, dict(response.headers), response.read()


def _payload(n=3, country="VE"):
    # July 2023 sits inside fig11's sampling window, so the append
    # visibly moves the report (the swap test relies on that).
    lines = [
        NDTResult(
            date=dt.date(2023, 7, 5 + i),
            country=country,
            asn=8048,
            download_mbps=3.5,
            upload_mbps=1.2,
            min_rtt_ms=48.0,
            loss_rate=0.02,
        ).to_json()
        for i in range(n)
    ]
    return "\n".join(lines).encode()


def _server(ingest_dir=None, max_backlog=None):
    """A single-process server over SMALL, with ingest when *ingest_dir*.

    Ingest is enabled (and its journal recovered) before the server
    starts, as ``repro serve --ingest-dir`` does; the server then builds
    its world before it listens.  Returns the server and its
    drain-and-join.
    """
    server = AioServer(
        ServeContext(pool=ScenarioPool(), params=dict(SMALL))
    )
    if ingest_dir is not None:
        enable_ingest(server, ingest_dir, max_backlog=max_backlog)
    return server, boot(server)


@pytest.fixture()
def ingest_server(tmp_path):
    server, stop = _server(tmp_path / "wal")
    yield server
    stop()


def test_ingest_disabled_without_journal():
    server, stop = _server()
    try:
        status, _, body = _post(server, "/v1/ingest/ndt", _payload())
        assert status == 503
        assert "ingestion disabled" in json.loads(body)["error"]["message"]
    finally:
        stop()


def test_ingest_receipt_and_surface_swap(ingest_server):
    _, _, before = _get(ingest_server, "/v1/report")
    generation = ingest_server.surface.generation

    status, _, body = _post(ingest_server, "/v1/ingest/ndt", _payload())
    assert status == 200
    receipt = json.loads(body)["data"]
    assert receipt["seq"] == 1
    assert receipt["duplicate"] is False
    assert receipt["accepted"] == 3
    assert receipt["partitions"] == ["2023-07.VE"]

    ingest_server.context.ingest.join(timeout=120)
    assert ingest_server.surface.generation == generation + 1
    _, _, after = _get(ingest_server, "/v1/report")
    assert after != before  # the appended month changed the report

    # An identical retry re-acks the same seq and swaps nothing.
    status, _, body = _post(ingest_server, "/v1/ingest/ndt", _payload())
    assert status == 200
    again = json.loads(body)["data"]
    assert again["duplicate"] is True
    assert again["seq"] == 1
    ingest_server.context.ingest.join(timeout=120)
    assert ingest_server.surface.generation == generation + 1

    # Healthz reports the journal state.
    _, _, health = _get(ingest_server, "/healthz")
    ingest = json.loads(health)["data"]["ingest"]
    assert ingest["journaled"] == 1
    assert ingest["applied_seq"] == 1
    assert ingest["backlog"] == 0


def test_ingest_error_mapping(ingest_server):
    status, _, body = _post(ingest_server, "/v1/ingest/bgp", _payload())
    assert status == 404
    assert "ndt" in json.loads(body)["error"]["known"]

    status, _, body = _post(ingest_server, "/v1/ingest/ndt", b"{broken")
    assert status == 422

    status, _, body = _post(ingest_server, "/v1/ingest/ndt", b"")
    assert status == 422

    status, _, _ = _post(ingest_server, "/v1/ingest/ndt", b"\xff\xfe")
    assert status == 422

    status, _, body = _post(
        ingest_server, "/v1/ingest/peeringdb", b"{}"
    )
    assert status == 422  # missing ?month=YYYY-MM

    status, _, _ = _post(
        ingest_server,
        "/v1/ingest/ndt",
        _payload(),
        headers={"Content-Length": "999999999999"},
    )
    assert status == 413


def test_ingest_backpressure_429(tmp_path):
    server, stop = _server(tmp_path / "wal", max_backlog=1)
    # Filling the backlog via HTTP would race the background apply —
    # instead stall the apply lock.
    ingestor = server.context.ingest
    try:
        with ingestor._apply_lock:  # hold the lock: applies stall
            status, _, _ = _post(server, "/v1/ingest/ndt", _payload(n=1))
            assert status == 200
            status, headers, body = _post(
                server, "/v1/ingest/ndt", _payload(n=2, country="BR")
            )
            assert status == 429
            assert headers["Retry-After"] == "5"
            assert json.loads(body)["error"]["backlog"] == 1
        ingestor.join(timeout=120)
    finally:
        stop()


def test_recovery_from_journal_on_startup(tmp_path):
    wal_dir = tmp_path / "wal"
    server, stop = _server(wal_dir)
    try:
        status, _, _ = _post(server, "/v1/ingest/ndt", _payload())
        assert status == 200
        server.context.ingest.join(timeout=120)
        _, _, first = _get(server, "/v1/report")
        applied = server.context.ingest.service.applied_fingerprints
    finally:
        stop()

    # A fresh process over the same journal converges to the same world.
    registry = get_registry()
    registry.reset()
    reborn, stop = _server(wal_dir)
    try:
        assert reborn.surface.generation == 1  # swapped before serving
        _, _, second = _get(reborn, "/v1/report")
        assert second == first
        assert (
            reborn.context.ingest.service.applied_fingerprints == applied
        )
        # Recovery built only the journal's world: no base world to
        # inherit from, and no ack time for a batch acked before.
        assert registry.timer("serve.pool.build").count == 0
        assert registry.counter("scenario.dataset.inherited").value == 0
        assert registry.gauge("ingest.freshness_lag").value == 0
    finally:
        stop()


def test_an_append_recomputes_one_exhibit_and_reports_its_lag(ingest_server):
    # The served world has computed the report; the apply inherits all
    # but the appended dataset and recomputes only fig11.
    _get(ingest_server, "/v1/report")
    registry = get_registry()
    runs = registry.counter("exhibit.runs").value
    started = time.monotonic()
    status, _, _ = _post(ingest_server, "/v1/ingest/ndt", _payload())
    assert status == 200
    ingest_server.context.ingest.join(timeout=120)
    wall = time.monotonic() - started

    assert ingest_server.surface.generation == 1
    assert registry.counter("exhibit.runs").value - runs == 1
    assert registry.counter("scenario.dataset.inherited").value == 15
    assert 0 < registry.gauge("ingest.freshness_lag").value <= wall


def test_body_split_across_writes_then_pipelined_request(tmp_path):
    # The body arrives in two writes with a GET pipelined behind it:
    # the server must wait for the whole body, answer it, then answer
    # the GET on the same connection.
    import socket

    server, stop = _server(tmp_path / "wal")
    body = b"{broken"
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/ingest/ndt HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body[:3]
            )
            time.sleep(0.2)  # the server now holds a partial body
            sock.sendall(body[3:] + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            sock.settimeout(30)
            received = b""
            while received.count(b"HTTP/1.1 ") < 2 or not received.endswith(b"}\n"):
                chunk = sock.recv(65536)
                assert chunk, received
                received += chunk
    finally:
        stop()
    first, second = received.split(b"HTTP/1.1 ")[1:]
    assert first.startswith(b"422 ")  # the whole body was parsed (and refused)
    assert second.startswith(b"200 ")
    assert b'"journaled":0' in second


def test_drained_server_closes_its_journal(tmp_path):
    # Drain joins the apply thread, then closes the journal's open
    # segment: nothing under the ingest directory stays open.
    wal_dir = tmp_path / "wal"
    server, stop = _server(wal_dir)
    status, _, _ = _post(server, "/v1/ingest/ndt", _payload())
    assert status == 200
    assert open_files_under(wal_dir.resolve())  # the segment, while serving
    stop()
    assert server.context.ingest.service.applied_seq == 1  # the apply finished
    assert open_files_under(wal_dir.resolve()) == []
