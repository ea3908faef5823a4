"""The asyncio engine end to end: payloads, keep-alive, cross-engine bytes.

The byte-identity tests are the PR's contract: every ``/v1/*`` response
from the asyncio engine — including 304 revalidations and 404/422 error
envelopes — must carry bytes and ETags identical to the threaded
engine's, whether served by one worker or a pre-forked pair.
"""

import http.client
import json
import signal
import threading

import pytest

from repro.core.exhibit import exhibit_catalog
from repro.serve import create_server
from repro.serve.artifacts import path_for, static_surface


def _get(port, path, headers=None, host="127.0.0.1"):
    """(status, headers, body) over a throwaway connection."""
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        connection.request("GET", path, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


@pytest.fixture(scope="module")
def threaded_server(scenario):
    """The reference engine, sharing the session scenario."""
    server = create_server()
    server.context.pool.seed(scenario)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


# -- behaviour ---------------------------------------------------------------


def test_static_payload_and_etag(aio_served):
    server = aio_served()
    status, headers, body = _get(server.port, "/v1/exhibits")
    assert status == 200
    assert headers["Content-Type"].startswith("application/json")
    assert json.loads(body)["data"]["exhibits"] == exhibit_catalog()
    assert headers["ETag"].startswith('"')
    assert int(headers["Content-Length"]) == len(body)


def test_keep_alive_reuses_one_connection(aio_served):
    server = aio_served()
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        bodies = []
        for _ in range(5):
            connection.request("GET", "/v1/report")
            response = connection.getresponse()
            bodies.append(response.read())
        assert len(set(bodies)) == 1
        assert len(server._connections) == 1
    finally:
        connection.close()


def test_if_none_match_revalidates_to_304(aio_served):
    server = aio_served()
    _, headers, _ = _get(server.port, "/v1/report")
    status, revalidated, body = _get(
        server.port, "/v1/report", headers={"If-None-Match": headers["ETag"]}
    )
    assert status == 304
    assert body == b""
    assert revalidated["ETag"] == headers["ETag"]


def test_case_folded_scorecard_serves_canonical_bytes(aio_served):
    server = aio_served()
    _, upper_headers, upper = _get(server.port, "/v1/scorecard/VE")
    _, lower_headers, lower = _get(server.port, "/v1/scorecard/ve")
    _, mixed_headers, mixed = _get(server.port, "/v1/scorecard/Ve")
    assert upper == lower == mixed
    assert upper_headers["ETag"] == lower_headers["ETag"] == mixed_headers["ETag"]


def test_dynamic_endpoints_live(aio_served):
    server = aio_served()
    status, headers, body = _get(server.port, "/healthz")
    assert status == 200
    assert json.loads(body)["data"]["status"] == "ok"
    assert headers["X-Request-Id"].startswith("req-")
    status, _, body = _get(server.port, "/v1/slo")
    assert status == 200
    assert isinstance(json.loads(body)["data"], dict)
    status, _, body = _get(server.port, "/metrics")
    assert status == 200
    assert body


def test_error_envelopes(aio_served):
    server = aio_served()
    status, _, body = _get(server.port, "/v1/exhibit/nope")
    assert status == 404
    assert json.loads(body)["error"]["status"] == 404
    status, _, body = _get(server.port, "/v1/scorecard/US")
    assert status == 422
    status, _, body = _get(server.port, "/v1/scorecard/ZZ")
    assert status == 404
    status, headers, body = _get(server.port, "/nope")
    assert status == 404
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        connection.request("POST", "/v1/report", body=b"x")
        response = connection.getresponse()
        assert response.status == 405
        assert json.loads(response.read())["error"]["allowed"] == ["GET"]
    finally:
        connection.close()


def test_malformed_request_line_is_a_400(aio_served):
    import socket

    server = aio_served()
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(b"NONSENSE\r\n\r\n")
        response = sock.recv(65536)
    assert b"400 Bad Request" in response


# -- cross-engine byte identity ----------------------------------------------

#: Endpoints whose bytes must match across engines: the full static
#: surface plus the error envelopes.
def _identity_paths():
    paths = [path_for(endpoint, params) for endpoint, params in static_surface()]
    paths += ["/v1/scorecard/ve", "/v1/exhibit/nope", "/v1/scorecard/US",
              "/v1/scorecard/ZZ", "/nope"]
    return paths


def test_single_worker_bytes_match_threaded(aio_served, threaded_server):
    aio = aio_served()
    threaded_port = threaded_server.server_address[1]
    for path in _identity_paths():
        t_status, t_headers, t_body = _get(threaded_port, path)
        a_status, a_headers, a_body = _get(aio.port, path)
        assert (a_status, a_body) == (t_status, t_body), path
        assert a_headers.get("ETag") == t_headers.get("ETag"), path


def test_304_revalidation_matches_threaded(aio_served, threaded_server):
    aio = aio_served()
    threaded_port = threaded_server.server_address[1]
    for path in ("/v1/report", "/v1/scorecard/ve"):
        _, headers, _ = _get(threaded_port, path)
        etag = headers["ETag"]
        t_status, _, t_body = _get(
            threaded_port, path, headers={"If-None-Match": etag}
        )
        a_status, a_headers, a_body = _get(
            aio.port, path, headers={"If-None-Match": etag}
        )
        assert t_status == a_status == 304
        assert t_body == a_body == b""
        assert a_headers["ETag"] == etag


def test_two_workers_serve_identical_content_addressed_bytes(fleet):
    """--workers 2: both preforked workers serve the same sealed bytes.

    SO_REUSEPORT spreads fresh connections across the two workers, so
    hammering one path over many throwaway connections exercises both;
    every response must be byte-identical with its ETag equal to the
    body's own SHA-256 (the content address), and SIGTERM must drain
    the whole tree to a zero exit.
    """
    import hashlib

    session, port, _workers = fleet()
    for path in ("/v1/exhibits", "/v1/report", "/v1/scorecard/ve"):
        seen = set()
        for _ in range(8):  # fresh connection each time: both workers
            status, headers, body = _get(port, path)
            assert status == 200, path
            digest = hashlib.sha256(body).hexdigest()
            assert headers["ETag"] == f'"{digest}"', path
            seen.add((headers["ETag"], body))
        assert len(seen) == 1, f"{path}: workers disagreed"

    session.process.send_signal(signal.SIGTERM)
    assert session.process.wait(timeout=60) == 0, session.stderr()[-2000:]
