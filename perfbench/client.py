"""Minimal HTTP clients for driving the server from outside.

:class:`KeepAliveClient` speaks HTTP/1.1 over one raw socket with
pre-encoded requests, so the client adds as little as possible to the
per-request time it measures.  :func:`call` is a one-shot request for
the threaded engine, which answers HTTP/1.0 and closes each connection.
"""

from __future__ import annotations

import http.client
import json
import socket

HOST = "127.0.0.1"

#: Bytes asked of each ``recv``.  Every static response fits, and the
#: buffer stays below glibc's 128 KiB mmap threshold: a larger one made
#: each receive an mmap/munmap pair and doubled the client's CPU time.
RECV_BYTES = 65536


def encode_get(path: str, if_none_match: str | None = None,
               accept: str | None = None) -> bytes:
    lines = [f"GET {path} HTTP/1.1", "Host: perfbench"]
    if if_none_match is not None:
        lines.append(f"If-None-Match: {if_none_match}")
    if accept is not None:
        lines.append(f"Accept: {accept}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _header(head: bytes, name: bytes) -> bytes | None:
    """The value of header *name* (given in canonical case) in *head*."""
    needle = b"\r\n" + name + b": "
    at = head.find(needle)
    if at < 0:
        at = head.lower().find(needle.lower())
        if at < 0:
            return None
    start = at + len(needle)
    end = head.find(b"\r\n", start)
    return head[start:] if end < 0 else head[start:end]


class KeepAliveClient:
    """One persistent HTTP/1.1 connection, one request in flight."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((HOST, port), timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def close(self) -> None:
        self._sock.close()

    def roundtrip(self, request: bytes) -> tuple[int, bytes | None, bytes]:
        """Send one encoded request; returns (status, etag, body)."""
        sock = self._sock
        sock.sendall(request)
        buf = self._buf
        end = buf.find(b"\r\n\r\n")
        while end < 0:
            chunk = sock.recv(RECV_BYTES)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
            end = buf.find(b"\r\n\r\n")
        head = buf[:end]
        status = int(head[9:12])
        length_value = _header(head, b"Content-Length")
        body_end = end + 4 + (int(length_value) if length_value else 0)
        while len(buf) < body_end:
            chunk = sock.recv(RECV_BYTES)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            buf += chunk
        self._buf = buf[body_end:]
        return status, _header(head, b"ETag"), buf[end + 4 : body_end]

    def get(self, path: str, **headers: str) -> tuple[int, bytes | None, bytes]:
        return self.roundtrip(encode_get(path, **headers))


def call(port: int, method: str, path: str, body: bytes | None = None,
         headers: dict[str, str] | None = None, timeout: float = 60.0
         ) -> tuple[int, dict[str, str], bytes]:
    """One request on a fresh connection; returns (status, headers, body)."""
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def get_data(port: int, path: str, timeout: float = 60.0) -> dict:
    """The ``data`` member of a JSON envelope served at *path*."""
    status, _, body = call(port, "GET", path, timeout=timeout)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)["data"]


def openmetrics_counters(port: int, names: tuple[str, ...]) -> dict[str, float]:
    """Totals of the named counter families from ``/metrics`` (absent = 0)."""
    client = KeepAliveClient(port)
    try:
        status, _, body = client.get(
            "/metrics", accept="application/openmetrics-text; version=1.0.0"
        )
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    totals = dict.fromkeys(names, 0.0)
    for line in body.decode("utf-8").splitlines():
        name, _, value = line.partition(" ")
        family = name.split("{", 1)[0].removesuffix("_total")
        if family in totals and name.split("{", 1)[0].endswith("_total"):
            totals[family] += float(value.split()[0])
    return totals
