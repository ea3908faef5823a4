"""Graceful drain on the asyncio engine, and who answers past a slow handler.

Drain semantics under test: once shutdown begins, the listener stops
accepting, idle keep-alive connections close, and **every request the
server already received — including requests buffered behind an
in-flight dynamic handler — is answered before its connection closes.**

A slow live handler holds one pool thread: the static plane,
``/healthz`` and ``/metrics`` still answer while it runs.
"""

import http.client
import socket
import time

from repro.serve.handlers import build_router


def _slow_router(seconds: float):
    """The live route table plus a deliberately slow dynamic endpoint."""

    def handle_slow(ctx):
        time.sleep(seconds)
        return {"slept": seconds}

    router = build_router()
    router.add("slow", "GET", "/v1/slow", handle_slow, cacheable=False)
    return router


def _read_responses(sock, count, initial=b"", timeout=30.0):
    """Read exactly *count* full HTTP responses; returns (statuses, rest)."""
    sock.settimeout(timeout)
    buf = initial
    statuses = []
    while len(statuses) < count:
        while b"\r\n\r\n" not in buf:
            chunk = sock.recv(65536)
            assert chunk, f"connection closed after {len(statuses)} responses"
            buf += chunk
        head, buf = buf.split(b"\r\n\r\n", 1)
        statuses.append(int(head.split(b" ", 2)[1]))
        lower = head.lower()
        length = 0
        marker = lower.find(b"content-length:")
        if marker >= 0:
            line = lower[marker + 15 :].split(b"\r\n", 1)[0]
            length = int(line.strip())
        while len(buf) < length:
            chunk = sock.recv(65536)
            assert chunk, "connection closed mid-body"
            buf += chunk
        buf = buf[length:]
    return statuses, buf


def _expect_clean_close(sock, timeout=30.0):
    """The server must close with no stray bytes after the last response."""
    sock.settimeout(timeout)
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return
        raise AssertionError(f"unexpected bytes after final response: {chunk[:80]!r}")


def test_drain_answers_inflight_and_buffered_requests(aio_served):
    """SIGTERM mid-burst: the parked pipeline still gets every answer.

    A slow dynamic request holds the connection busy while two more
    requests sit parked in the protocol buffer; shutdown starts while
    the handler sleeps.  All three must be answered before the close.
    """
    server = aio_served(router=_slow_router(0.4))
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
        sock.sendall(
            b"GET /v1/slow HTTP/1.1\r\nHost: t\r\n\r\n"
            b"GET /v1/exhibits HTTP/1.1\r\nHost: t\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        time.sleep(0.1)  # the slow handler is now in flight
        server.initiate_shutdown()
        statuses, leftover = _read_responses(sock, 3)
        assert leftover == b""
        _expect_clean_close(sock)
    assert statuses == [200, 200, 200]


def test_drain_answers_pipelined_static_burst(aio_served):
    server = aio_served()
    burst = b"".join(
        b"GET /v1/scorecard/VE HTTP/1.1\r\nHost: t\r\n\r\n" for _ in range(50)
    )
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
        sock.sendall(burst)
        # One response byte back means the server consumed the whole
        # burst (the protocol parses its buffer to exhaustion before
        # writing); shutdown must still flush all 50 answers.
        first = sock.recv(1)
        assert first == b"H"
        server.initiate_shutdown()
        statuses, leftover = _read_responses(sock, 50, initial=first)
        assert leftover == b""
        _expect_clean_close(sock)
    assert statuses == [200] * 50


def test_drain_closes_idle_connections_and_refuses_new(aio_served):
    server = aio_served()
    idle = socket.create_connection(("127.0.0.1", server.port), timeout=30)
    idle.sendall(b"GET /v1/report HTTP/1.1\r\nHost: t\r\n\r\n")
    statuses, leftover = _read_responses(idle, 1)
    assert statuses == [200]
    assert leftover == b""
    server.initiate_shutdown()
    _expect_clean_close(idle, timeout=10)
    idle.close()

    # New connections are refused (or closed immediately) during drain.
    try:
        late = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    except OSError:
        return  # listener already gone: equally acceptable
    late.settimeout(5)
    try:
        assert late.recv(1) == b""
    except OSError:
        pass  # reset also counts as refused
    finally:
        late.close()


def test_static_plane_is_never_shed(aio_served):
    """Sealed artifacts and health endpoints answer past a slow handler."""
    server = aio_served(router=_slow_router(0.6))
    occupier = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    occupier.request("GET", "/v1/slow")
    time.sleep(0.1)
    for path in ("/v1/report",) * 5 + ("/healthz", "/metrics"):
        probe = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        probe.request("GET", path)
        assert probe.getresponse().status == 200
        probe.close()
    assert occupier.getresponse().status == 200
    occupier.close()
