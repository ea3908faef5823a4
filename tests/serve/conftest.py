"""Shared serve-test fixtures: the sealed artifact plane and server boots.

The artifact store renders the whole static surface once per session
(from the shared session scenario, so no extra builds).  :func:`boot`
runs an :class:`AioServer` on an ephemeral port inside a
background event-loop thread; the ``aio_served`` factory boots servers
over the sealed session plane, and the ``served`` factory boots
servers that fill their plane on first request.  Every boot is drained
at teardown.

:func:`repro` starts ``repro serve`` as a process instead, in its own
session (:func:`tests.subproc.launch`); :func:`request` and
:func:`healthz` talk to it with bounded waits.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
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


def free_port() -> int:
    """A port nothing listens on right now."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def repro(*argv: str):
    """``python -m repro *argv`` in its own session."""
    return launch(f"from repro.cli import main; raise SystemExit(main({list(argv)!r}))")


def request(
    port: int, path: str, body: bytes | None = None
) -> tuple[int, dict[str, str], bytes]:
    """GET *path* on a local port, or POST *body* to it."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET" if body is None else "POST", path, body=body)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def healthz(session, port: int, timeout: float = 300.0) -> dict:
    """The first 200 ``/healthz`` payload; fails if the server exits first."""
    deadline = time.monotonic() + timeout
    while True:
        assert session.process.poll() is None, session.stderr()[-2000:]
        try:
            status, _, body = request(port, "/healthz")
            if status == 200:
                return json.loads(body)["data"]
        except OSError:
            pass
        assert time.monotonic() < deadline, "server not healthy in time"
        time.sleep(0.1)


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
    """Factory booting servers with a lazily filled plane.

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
