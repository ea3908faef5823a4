"""Shared serve-test fixtures: the sealed artifact plane and aio boots.

The artifact store renders the whole static surface once per session
(from the shared session scenario, so no extra builds), and the
``aio_served`` factory boots an :class:`AioReproServer` on an ephemeral
port inside a background event-loop thread, draining it at teardown.
The ``fleet`` factory runs a two-worker ``run_workers`` script in its
own session and kills that session at teardown.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import os
import threading
import time

import pytest

from repro.serve.aio import AioReproServer
from repro.serve.artifacts import build_artifact_store
from repro.serve.handlers import ServeContext
from repro.serve.pool import ScenarioPool
from tests.subproc import launch


@pytest.fixture(scope="session")
def artifact_plane(scenario):
    """(ServeContext, ArtifactStore) over the session scenario."""
    pool = ScenarioPool()
    pool.seed(scenario)
    context = ServeContext(pool=pool)
    return context, build_artifact_store(context)


@pytest.fixture
def aio_served(artifact_plane):
    """Factory booting aio servers; every boot is drained at teardown."""
    context, store = artifact_plane
    booted: list[tuple[AioReproServer, threading.Thread]] = []

    def boot(**kwargs) -> AioReproServer:
        server = AioReproServer(context, store, **kwargs)
        ready = threading.Event()

        async def main() -> None:
            await server.start()
            ready.set()
            await server.wait_drained()
            await server._close()

        thread = threading.Thread(target=lambda: asyncio.run(main()), daemon=True)
        thread.start()
        assert ready.wait(30), "aio server failed to start"
        booted.append((server, thread))
        return server

    yield boot
    for server, thread in booted:
        server.initiate_shutdown()
        thread.join(timeout=30)


_FLEET_SCRIPT = """
import os
from repro.obs import get_registry
from repro.serve.aio import create_aio_server, run_workers
from repro.serve.artifacts import build_artifact_store
from repro.serve.handlers import ServeContext
from repro.serve.pool import ScenarioPool

params = {"ndt_tests_per_month": 1, "gpdns_samples_per_month": 1}
pool = ScenarioPool(build_workers=2)
context = ServeContext(pool=pool, params=params)
store = build_artifact_store(context, workers=2)

def make(sock):
    print("worker", os.getpid(), flush=True)
    return create_aio_server(artifacts=store, context=context, sock=sock)

run_workers(
    make, 2, "127.0.0.1", 0,
    on_bound=lambda port: print("port", port, flush=True),
    **%r
)
print(
    "restarted",
    int(get_registry().counter("serve.workers.restarted").value),
    flush=True,
)
"""


def healthz(port: int) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status
    finally:
        conn.close()


@pytest.fixture
def fleet():
    """Factory: ``fleet(**run_workers_options) -> (session, port, worker_pids)``.

    Each worker prints its pid from ``make(sock)``, after the fork; the
    factory returns once both have and ``/healthz`` answers 200.
    """
    if not hasattr(os, "fork"):
        pytest.skip("fork-based workers need POSIX")
    with contextlib.ExitStack() as stack:

        def start(**options):
            session = stack.enter_context(launch(_FLEET_SCRIPT % (options,)))

            def announced(word, timeout):
                line = session.readline(timeout)
                assert line.startswith(word), (line, session.stderr()[-2000:])
                return int(line.split()[1])

            port = announced("port", timeout=300)
            workers = [announced("worker", timeout=60) for _ in range(2)]
            deadline = time.monotonic() + 60
            while True:
                try:
                    if healthz(port) == 200:
                        return session, port, workers
                except OSError:
                    pass
                assert time.monotonic() < deadline, "workers never became ready"
                time.sleep(0.2)

        yield start
