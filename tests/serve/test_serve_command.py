"""``repro serve`` as a process, started the way the ingest benchmark starts it.

``python -m repro --cache-dir C serve --ingest-dir W --port P``, with the
global ``--trace --metrics-json M`` added, runs in its own session
(:func:`tests.subproc.launch`): it answers ``/healthz`` and the report's
sealed bytes, a second ``repro serve`` on the same port fails before it
opens a journal, and SIGTERM drains the first to exit 0, after which
``M`` holds the server's spans.
"""

import hashlib
import http.client
import json
import signal
import socket
import time

from repro.obs import metrics_from_json
from tests.subproc import launch


def _free_port() -> int:
    """A port nothing listens on right now."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _repro(*argv: str):
    """``python -m repro *argv`` in its own session."""
    return launch(f"from repro.cli import main; raise SystemExit(main({list(argv)!r}))")


def _get(port: int, path: str) -> tuple[int, dict[str, str], bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def _healthz(session, port: int, timeout: float = 300.0) -> dict:
    """The first 200 ``/healthz`` payload; fails if the server exits first."""
    deadline = time.monotonic() + timeout
    while True:
        assert session.process.poll() is None, session.stderr()[-2000:]
        try:
            status, _, body = _get(port, "/healthz")
            if status == 200:
                return json.loads(body)["data"]
        except OSError:
            pass
        assert time.monotonic() < deadline, "server not healthy in time"
        time.sleep(0.1)


def test_serve_owns_its_port_and_drains_on_sigterm(artifact_plane, tmp_path):
    _, store = artifact_plane
    port = _free_port()
    wal, second_wal = tmp_path / "wal", tmp_path / "wal2"
    metrics = tmp_path / "metrics.json"
    first = ("--trace", "--metrics-json", str(metrics),
             "--cache-dir", str(tmp_path / "cache"), "serve",
             "--ingest-dir", str(wal), "--port", str(port))
    with _repro(*first) as server:
        health = _healthz(server, port)
        assert "ingest" in health
        assert "slo" not in health
        status, headers, body = _get(port, "/v1/report")
        assert status == 200
        assert hashlib.sha256(body).hexdigest() == store.get("/v1/report").sha256
        assert "X-Request-Id" not in headers
        assert _get(port, "/v1/slo")[0] == 404

        # A taken port is an error: no shared accept queue, no journal.
        with _repro("--no-cache", "serve", "--port", str(port),
                    "--ingest-dir", str(second_wal)) as second:
            assert second.process.wait(timeout=30) == 1
            assert "Address already in use" in second.stderr()
        assert not second_wal.exists()

        server.process.send_signal(signal.SIGTERM)
        assert server.process.wait(timeout=60) == 0, server.stderr()[-2000:]
        assert "server drained; exiting" in server.stderr()

    # --trace traces a server like any command: the first /v1/report
    # rendered the artifact inside the request's span.
    spans = metrics_from_json(metrics.read_text(encoding="utf-8"))["spans"]
    (request,) = [s for s in spans if s["name"] == "serve.request.report"]
    (render,) = [s for s in spans if s["name"] == "serve.artifacts.render.report"]
    assert render["parent_id"] == request["span_id"]
