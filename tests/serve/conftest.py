"""Shared serve-test fixtures: the sealed artifact plane and server boots.

The artifact store renders the whole static surface once per session
(from the shared session scenario, so no extra builds).  :func:`boot`
runs an :class:`AioServer` on an ephemeral port inside a
background event-loop thread; the ``aio_served`` factory boots servers
over the sealed session plane, and the ``served`` factory boots
single-process servers that fill their plane on first request.  Every
boot is drained at teardown.  The ``fleet`` factory runs a two-worker
``run_workers`` script in its own session and kills that session at
teardown.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import threading
import time
from typing import Callable

import pytest

from repro.obs import get_registry
from repro.serve.aio import AioServer
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


def boot(server: AioServer) -> Callable[[], None]:
    """Serve *server* on a background loop thread; returns its drain-and-join."""
    ready = threading.Event()

    async def main() -> None:
        await server.start()
        ready.set()
        await server.wait_drained()
        await server._close()

    thread = threading.Thread(target=lambda: asyncio.run(main()), daemon=True)
    thread.start()
    assert ready.wait(30), "server failed to start"

    def stop() -> None:
        server.initiate_shutdown()
        thread.join(timeout=30)

    return stop


def seeded_context(scenario, params=None) -> ServeContext:
    """A fresh pool holding the session scenario, serving *params*.

    With *params* other than the defaults the pool is cold for them, so
    a server over it builds that world when it starts.
    """
    pool = ScenarioPool()
    pool.seed(scenario)
    return ServeContext(pool=pool, params=dict(params or {}))


def wait_for_counter(name: str, value: float, timeout: float = 10.0) -> None:
    """Wait until counter *name* reaches *value*.

    Static responses are counted in batches, flushed when their
    connection closes, which the server sees just after the client.
    """
    registry = get_registry()
    deadline = time.monotonic() + timeout
    while registry.counter(name).value < value:
        assert time.monotonic() < deadline, f"{name} stayed below {value}"
        time.sleep(0.01)


@pytest.fixture
def aio_served(artifact_plane):
    """Factory booting servers over the sealed session plane."""
    context, store = artifact_plane
    stops: list[Callable[[], None]] = []

    def start(**kwargs) -> AioServer:
        server = AioServer(context, store, **kwargs)
        stops.append(boot(server))
        return server

    yield start
    for stop in stops:
        stop()


@pytest.fixture
def served(scenario):
    """Factory booting single-process servers with a lazily filled plane.

    ``served(params=..., context=..., **server_kwargs)``: the context
    defaults to :func:`seeded_context` over *params*.
    """
    stops: list[Callable[[], None]] = []

    def start(params=None, context=None, **kwargs) -> AioServer:
        if context is None:
            context = seeded_context(scenario, params)
        server = AioServer(context, **kwargs)
        stops.append(boot(server))
        return server

    yield start
    for stop in stops:
        stop()


_FLEET_SCRIPT = """
import json
import os
from repro.obs import get_registry
from repro.serve.aio import create_aio_server, run_workers
from repro.serve.artifacts import build_artifact_store
from repro.serve.handlers import ServeContext
from repro.serve.pool import ScenarioPool

params = {"ndt_tests_per_month": 1, "gpdns_samples_per_month": 1}
pool = ScenarioPool()
context = ServeContext(pool=pool, params=params)
store = build_artifact_store(context)
print("plane", json.dumps({a.path: a.sha256 for a in store}), flush=True)

def make(sock):
    # One write per line: both workers share the pipe, and print() may
    # split a line into several writes that interleave.
    os.write(1, f"worker {os.getpid()}\\n".encode())
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
    """Factory: ``fleet(**run_workers_options) -> (session, port, worker_pids, plane)``.

    *plane* maps each path of the store the fleet sealed to its sha256.
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
                return line.split(maxsplit=1)[1]

            plane = json.loads(announced("plane", timeout=300))
            port = int(announced("port", timeout=60))
            workers = [int(announced("worker", timeout=60)) for _ in range(2)]
            deadline = time.monotonic() + 60
            while True:
                try:
                    if healthz(port) == 200:
                        return session, port, workers, plane
                except OSError:
                    pass
                assert time.monotonic() < deadline, "workers never became ready"
                time.sleep(0.2)

        yield start
