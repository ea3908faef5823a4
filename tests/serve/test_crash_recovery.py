"""A served journal survives SIGKILL at every crash point.

Each case starts ``python -m repro --cache-dir C serve --ingest-dir W
--port P`` with ``REPRO_INGEST_CRASH`` armed, POSTs one NDT batch, and
lets :func:`repro.ingest.service.maybe_crash` SIGKILL the server at that
point: no unwinding, no ``finally``, no flushing.  A restarted server
over the same ``W`` must then converge on an uninterrupted served run:

1. the crashed server died by SIGKILL and committed no checkpoint (at
   ``post-ack`` the POST got no response; at the later points it was
   acked first);
2. the restart reports the batch applied with no backlog, serves the
   uninterrupted run's ``/v1/report`` bytes, and its checkpoint carries
   the same dataset, artifact and report fingerprints;
3. a re-POST of the batch is re-acked as a duplicate of seq 1 and moves
   nothing.

Every server runs in its own session (:func:`tests.subproc.launch`),
every wait is bounded, and one warm dataset cache serves the module.
"""

from __future__ import annotations

import datetime as dt
import http.client
import json
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.ingest.service import CRASH_POINTS, ENV_CRASH
from repro.mlab.ndt import NDTResult
from tests.serve.conftest import free_port, healthz, repro, request

#: Four July 2023 VE tests: inside fig11's window, so the report moves.
BATCH = "\n".join(
    NDTResult(
        date=dt.date(2023, 7, 5 + i),
        country="VE",
        asn=8048,
        download_mbps=3.5,
        upload_mbps=1.2,
        min_rtt_ms=48.0,
        loss_rate=0.02,
    ).to_json()
    for i in range(4)
).encode()


@dataclass(frozen=True)
class Control:
    """What an uninterrupted served run converged on."""

    cache: Path
    report: bytes
    fingerprints: dict


def _serve(cache: Path, wal: Path, port: int):
    return repro("--cache-dir", str(cache), "serve", "--ingest-dir", str(wal),
                 "--port", str(port))


def _post(port: int) -> dict:
    status, _, body = request(port, "/v1/ingest/ndt", BATCH)
    assert status == 200, body
    return json.loads(body)["data"]


def _fingerprints(wal: Path) -> dict:
    return json.loads((wal / "checkpoint.json").read_text())["fingerprints"]


def _wait(predicate, what: str, timeout: float = 120.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"{what} not within {timeout} s"
        time.sleep(0.1)


@pytest.fixture(scope="module")
def control(tmp_path_factory) -> Control:
    """The uninterrupted run; its cache is warm for every later server."""
    root = tmp_path_factory.mktemp("crash-control")
    cache, wal, port = root / "cache", root / "wal", free_port()
    with _serve(cache, wal, port) as server:
        healthz(server, port)
        base = request(port, "/v1/report")[2]
        assert _post(port)["seq"] == 1
        _wait(lambda: healthz(server, port)["ingest"]["applied_seq"] == 1,
              "the apply")
        # The checkpoint commits just before the swap.
        _wait(lambda: request(port, "/v1/report")[2] != base, "the swap")
        report = request(port, "/v1/report")[2]
    return Control(cache=cache, report=report, fingerprints=_fingerprints(wal))


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_a_restart_converges_after_sigkill(point, control, tmp_path, monkeypatch):
    wal = tmp_path / "wal"

    monkeypatch.setenv(ENV_CRASH, point)
    port = free_port()
    with _serve(control.cache, wal, port) as crashed:
        healthz(crashed, port)
        if point == "post-ack":
            with pytest.raises((OSError, http.client.HTTPException)):
                request(port, "/v1/ingest/ndt", BATCH)
        else:
            receipt = _post(port)
            assert (receipt["seq"], receipt["duplicate"]) == (1, False)
        assert crashed.process.wait(timeout=120) == -signal.SIGKILL
    assert not (wal / "checkpoint.json").exists()

    monkeypatch.delenv(ENV_CRASH)
    port = free_port()
    with _serve(control.cache, wal, port) as restarted:
        ingest = healthz(restarted, port)["ingest"]
        assert (ingest["journaled"], ingest["applied_seq"], ingest["backlog"]) == (1, 1, 0)
        assert request(port, "/v1/report")[2] == control.report
        assert _fingerprints(wal) == control.fingerprints

        receipt = _post(port)
        assert (receipt["seq"], receipt["duplicate"]) == (1, True)
        ingest = healthz(restarted, port)["ingest"]
        assert (ingest["journaled"], ingest["applied_seq"], ingest["backlog"]) == (1, 1, 0)
        assert request(port, "/v1/report")[2] == control.report
        assert _fingerprints(wal) == control.fingerprints
