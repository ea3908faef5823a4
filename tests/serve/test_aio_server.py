"""The server end to end: payloads, keep-alive, and the golden plane.

The golden-plane test is the serving contract: a server that fills its
plane on first request and a server over a sealed store both serve
every static path with the bytes and ETag of the
``build_artifact_store`` artifact, so the fingerprint over the served
``(path, sha256)`` pairs is the store's fingerprint.
"""

import hashlib
import http.client
import json
import socket

import pytest

from repro.core.exhibit import exhibit_catalog
from repro.serve.artifacts import static_surface


def _get(port, path, headers=None, host="127.0.0.1"):
    """(status, headers, body) over a throwaway connection."""
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        connection.request("GET", path, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


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
    status, _, body = _get(server.port, "/healthz")
    assert status == 200
    assert json.loads(body)["data"]["status"] == "ok"
    status, _, _ = _get(server.port, "/v1/slo")
    assert status == 404
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
    server = aio_served()
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(b"NONSENSE\r\n\r\n")
        response = sock.recv(65536)
    assert b"400 Bad Request" in response


def _read_response(sock, buf=b""):
    """One whole response off *sock*: (status line, rest of the buffer)."""

    def more():
        chunk = sock.recv(65536)
        assert chunk, "the server closed the connection"
        return chunk

    while b"\r\n\r\n" not in buf:
        buf += more()
    head, _, buf = buf.partition(b"\r\n\r\n")
    length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
    while len(buf) < length:
        buf += more()
    return head.split(b"\r\n")[0], buf[length:]


@pytest.mark.parametrize(
    "path", ["/v1/exhibits", "/healthz"], ids=["static", "live"]
)
@pytest.mark.parametrize(
    "version, header, closes",
    [
        (b"HTTP/1.1", b"Connection:close", True),
        (b"HTTP/1.1", b"Connection:  close", True),
        (b"HTTP/1.1", b"connection: TE, Close", True),
        (b"HTTP/1.0", b"Connection:keep-alive", False),
    ],
    ids=["no-space", "two-spaces", "token-list", "http10-keep-alive"],
)
def test_connection_header_is_read_by_token(
    aio_served, path, version, header, closes
):
    # However the Connection header is spaced or cased, "close" closes
    # the socket after the response and HTTP/1.0 "keep-alive" keeps it.
    server = aio_served()
    request = b"GET %s %s\r\nHost: t\r\n%s\r\n\r\n" % (
        path.encode(), version, header
    )
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(request)
        status, rest = _read_response(sock)
        assert status.endswith(b" 200 OK")
        if closes:
            assert rest + sock.recv(65536) == b""  # EOF, within the timeout
        else:
            sock.sendall(request)
            assert _read_response(sock, rest)[0].endswith(b" 200 OK")


# -- the golden plane --------------------------------------------------------


def _served_fingerprint(port, expected):
    """Check every static path on *port* against *expected* (path -> sha256).

    Each path's 200 body and ETag must be the artifact's, its ETag must
    revalidate to a bodiless 304, and a lower-case scorecard path must
    serve the upper-case bytes.  Returns the fingerprint over the served
    ``(path, sha256)`` pairs, computed as ``ArtifactStore.fingerprint``.
    """
    digest = hashlib.sha256()
    for path in sorted(expected):
        status, headers, body = _get(port, path)
        sha = hashlib.sha256(body).hexdigest()
        assert (status, sha) == (200, expected[path]), path
        assert headers["ETag"] == f'"{sha}"', path
        status, revalidated, empty = _get(
            port, path, headers={"If-None-Match": headers["ETag"]}
        )
        assert (status, empty, revalidated["ETag"]) == (304, b"", headers["ETag"])
        if path.startswith("/v1/scorecard/"):
            status, lower_headers, lower = _get(port, path.lower())
            assert (status, lower, lower_headers["ETag"]) == (
                200, body, headers["ETag"],
            ), path
        digest.update(path.encode("utf-8") + b"\0" + sha.encode("ascii") + b"\n")
    return digest.hexdigest()


def _error_envelopes(port):
    """(status, body) of the error paths, which no plane ever holds."""
    paths = ("/v1/exhibit/nope", "/v1/scorecard/US", "/v1/scorecard/ZZ", "/nope")
    return {path: _get(port, path)[::2] for path in paths}


def test_every_server_serves_the_golden_plane(artifact_plane, aio_served, served):
    _, store = artifact_plane
    expected = {artifact.path: artifact.sha256 for artifact in store}
    assert len(expected) == len(static_surface())

    lazy = served()  # renders each path on its first request
    assert _served_fingerprint(lazy.port, expected) == store.fingerprint()
    # Every path has been requested once: now all of them are static.
    assert len(lazy.surface.wire) >= len(expected)
    assert _served_fingerprint(lazy.port, expected) == store.fingerprint()
    errors = _error_envelopes(lazy.port)

    sealed = aio_served()
    assert _served_fingerprint(sealed.port, expected) == store.fingerprint()
    assert _error_envelopes(sealed.port) == errors

