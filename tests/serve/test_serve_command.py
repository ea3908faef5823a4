"""``repro serve`` as a process, started the way the ingest benchmark starts it.

``python -m repro --cache-dir C serve --ingest-dir W --port P``, with the
global ``--trace --metrics-json M`` added, runs in its own session
(:func:`tests.subproc.launch`): it answers ``/healthz`` and the report's
sealed bytes, a second ``repro serve`` on the same port fails before it
opens a journal, a third on the same journal fails before it builds a
world, and SIGTERM drains the first to exit 0, after which ``M`` holds
the server's spans.
"""

import hashlib
import signal

from repro.obs import metrics_from_json
from tests.serve.conftest import free_port, healthz, repro, request


def test_serve_owns_its_port_and_drains_on_sigterm(artifact_plane, tmp_path):
    _, store = artifact_plane
    port = free_port()
    wal, second_wal = tmp_path / "wal", tmp_path / "wal2"
    metrics = tmp_path / "metrics.json"
    first = ("--trace", "--metrics-json", str(metrics),
             "--cache-dir", str(tmp_path / "cache"), "serve",
             "--ingest-dir", str(wal), "--port", str(port))
    with repro(*first) as server:
        health = healthz(server, port)
        assert "ingest" in health
        assert "slo" not in health
        status, headers, body = request(port, "/v1/report")
        assert status == 200
        assert hashlib.sha256(body).hexdigest() == store.get("/v1/report").sha256
        assert "X-Request-Id" not in headers
        assert request(port, "/v1/slo")[0] == 404

        # A taken port is an error: no shared accept queue, no journal.
        with repro("--no-cache", "serve", "--port", str(port),
                   "--ingest-dir", str(second_wal)) as second:
            assert second.process.wait(timeout=30) == 1
            assert "Address already in use" in second.stderr()
        assert not second_wal.exists()

        # So is a journal another server holds, on any port: two writers
        # would ack the same seq.  It fails before it builds a world.
        with repro("--no-cache", "serve", "--port", str(free_port()),
                   "--ingest-dir", str(wal)) as third:
            assert third.process.wait(timeout=30) == 1
            assert f"cannot open --ingest-dir: journal {wal}" in third.stderr()
            assert "serving on" not in third.stderr()
        assert healthz(server, port, timeout=10)["ingest"]["journaled"] == 0

        server.process.send_signal(signal.SIGTERM)
        assert server.process.wait(timeout=60) == 0, server.stderr()[-2000:]
        assert "server drained; exiting" in server.stderr()

    # --trace traces a server like any command: the first /v1/report
    # rendered the artifact inside the request's span.
    spans = metrics_from_json(metrics.read_text(encoding="utf-8"))["spans"]
    (served,) = [s for s in spans if s["name"] == "serve.request.report"]
    (render,) = [s for s in spans if s["name"] == "serve.artifacts.render.report"]
    assert render["parent_id"] == served["span_id"]
