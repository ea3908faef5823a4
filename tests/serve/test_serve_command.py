"""``repro serve`` as a process, started the way the ingest benchmark starts it.

``python -m repro --cache-dir C serve --ingest-dir W --port P`` runs in
its own session (:func:`tests.subproc.launch`): it answers ``/healthz``
and the report's sealed bytes, a second ``repro serve`` on the same port
fails before it opens a journal, and SIGTERM drains the first to exit 0.
"""

import hashlib
import http.client
import json
import signal
import socket
import time

from tests.subproc import launch


def _free_port() -> int:
    """A port nothing listens on right now."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _repro(*argv: str):
    """``python -m repro *argv`` in its own session."""
    return launch(f"from repro.cli import main; raise SystemExit(main({list(argv)!r}))")


def _get(port: int, path: str) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _healthz(session, port: int, timeout: float = 300.0) -> dict:
    """The first 200 ``/healthz`` payload; fails if the server exits first."""
    deadline = time.monotonic() + timeout
    while True:
        assert session.process.poll() is None, session.stderr()[-2000:]
        try:
            status, body = _get(port, "/healthz")
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
    first = ("--cache-dir", str(tmp_path / "cache"), "serve",
             "--ingest-dir", str(wal), "--port", str(port))
    with _repro(*first) as server:
        assert "ingest" in _healthz(server, port)
        status, body = _get(port, "/v1/report")
        assert status == 200
        assert hashlib.sha256(body).hexdigest() == store.get("/v1/report").sha256

        # A taken port is an error: no shared accept queue, no journal.
        with _repro("--no-cache", "serve", "--port", str(port),
                    "--ingest-dir", str(second_wal)) as second:
            assert second.process.wait(timeout=30) == 1
            assert "Address already in use" in second.stderr()
        assert not second_wal.exists()

        server.process.send_signal(signal.SIGTERM)
        assert server.process.wait(timeout=60) == 0, server.stderr()[-2000:]
        assert "server drained; exiting" in server.stderr()
