"""The asyncio front end: zero-copy serving of the sealed artifact plane.

One event loop, one ``asyncio.Protocol`` per connection, HTTP/1.1 with
keep-alive.  At server construction every
:class:`~repro.serve.artifacts.Artifact` is compiled into two immutable
wire images — the full ``200`` (status line + headers + body) and the
``304 Not Modified`` revalidation — so the static hot path per request
is: find the header terminator, read the request line, one dict lookup,
one ``transport.write`` of a sealed :class:`memoryview`.  No rendering,
no locks, no per-request allocation beyond the parse.  That is what
moves the serving ceiling from ~188 req/s (threaded engine, per-request
render/cache machinery) to 10k+ req/s on one core.

Only genuinely dynamic endpoints — ``/healthz``, ``/metrics``,
``/v1/slo`` — plus error envelopes and case-folded artifact lookups go
through the live dispatch path; those run on a small thread pool so a
slow handler can never stall the event loop, and they carry the same
hardening as the threaded engine: per-request deadlines, max-inflight
shedding with 503 + ``Retry-After`` (health endpoints exempt), circuit
breaker and pool timeouts surfacing as 503s.

Shutdown is graceful: SIGTERM/SIGINT stop the accept loop, idle
keep-alive connections are closed, and every request already received is
answered before the process exits — ``transport.close()`` flushes
buffered responses, and in-flight dynamic handlers finish before their
connections close.

Multi-worker mode (``--workers N``) pre-forks after the artifact plane
is built (workers share it copy-on-write) and binds one listening
socket per worker with ``SO_REUSEPORT`` so the kernel load-balances
accepts; without ``SO_REUSEPORT`` the workers share the parent's
socket instead.

Observability (batched, so instruments never dominate the hot path):
``serve.requests`` and ``serve.artifact.hit`` are flushed every
:data:`_FLUSH_EVERY` requests and on disconnect; the
``serve.request.artifact`` timer samples one static request in
:data:`_TIMER_SAMPLE`; dynamic requests record the same per-endpoint
``serve.request.<name>`` timers and error counters as the threaded
engine.  Static responses do not carry per-request ``X-Request-Id`` /
``traceparent`` headers (they are pre-sealed bytes); dynamic responses
do.
"""

from __future__ import annotations

import asyncio
import math
import os
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

from repro.core.degrade import DatasetDegradedError
from repro.obs import (
    get_logger,
    get_registry,
    start_request_context,
    use_context,
)
from repro.serve.artifacts import Artifact, ArtifactStore
from repro.serve.breaker import BreakerOpenError
from repro.serve.deadline import DeadlineExpired, deadline_scope
from repro.serve.handlers import build_router
from repro.serve.pool import PoolTimeoutError
from repro.serve.router import (
    JSON_CONTENT_TYPE,
    HTTPError,
    RawResponse,
    Router,
    envelope_bytes,
    error_bytes,
    etag_matches,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.handlers import ServeContext

_LOG = get_logger("repro.serve.aio")

#: Batched counters flush to the registry every this many static hits.
_FLUSH_EVERY = 256
#: One static request in this many lands in the serve.request.artifact
#: timer (sampling keeps the hot path free of clock reads).
_TIMER_SAMPLE = 64

_REASONS = {
    200: "OK", 304: "Not Modified", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 422: "Unprocessable Entity",
    500: "Internal Server Error", 503: "Service Unavailable",
}

#: Endpoints exempt from load shedding (mirrors the threaded engine).
_SHED_EXEMPT = ("healthz", "metrics")


def _reason(status: int) -> str:
    return _REASONS.get(status, "Unknown")


class _Wire:
    """One artifact compiled to immutable wire images."""

    __slots__ = ("full", "not_modified", "etag")

    def __init__(self, artifact: Artifact) -> None:
        head = (
            f"HTTP/1.1 200 OK\r\n"
            f"Content-Type: {artifact.content_type}\r\n"
            f"Content-Length: {len(artifact.body)}\r\n"
            f"ETag: {artifact.etag}\r\n"
            f"\r\n"
        ).encode("latin-1")
        self.full = memoryview(head + artifact.body)
        self.not_modified = memoryview(
            f"HTTP/1.1 304 Not Modified\r\nETag: {artifact.etag}\r\n\r\n".encode(
                "latin-1"
            )
        )
        self.etag = artifact.etag


def _response_bytes(
    status: int,
    body: bytes,
    content_type: str,
    etag: str | None,
    extra_headers: dict[str, str] | None,
    trace_headers: dict[str, str],
    close: bool,
) -> bytes:
    """A dynamically assembled HTTP/1.1 response."""
    lines = [f"HTTP/1.1 {status} {_reason(status)}"]
    if status != 304:
        lines.append(f"Content-Type: {content_type}")
        lines.append(f"Content-Length: {len(body)}")
    if etag is not None:
        lines.append(f"ETag: {etag}")
    for name, value in trace_headers.items():
        lines.append(f"{name}: {value}")
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    if close:
        lines.append("Connection: close")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head if status == 304 else head + body


def _header_value(lower_blob: bytes, name: bytes) -> str | None:
    """The value of header *name* (lower-case) in a lower-cased blob."""
    needle = name + b":"
    start = lower_blob.find(needle)
    while start > 0 and lower_blob[start - 1 : start] != b"\n":
        start = lower_blob.find(needle, start + 1)
    if start < 0:
        return None
    end = lower_blob.find(b"\r\n", start)
    if end < 0:
        end = len(lower_blob)
    return lower_blob[start + len(needle) : end].strip().decode("latin-1")


class _AioProtocol(asyncio.Protocol):
    """Per-connection HTTP/1.1 state machine over the sealed wire table."""

    __slots__ = (
        "server", "transport", "_buf", "_busy", "_skip", "_close_after",
        "_draining", "_n_static", "_n_304", "_sample",
    )

    def __init__(self, server: "AioReproServer") -> None:
        self.server = server
        self.transport: asyncio.Transport | None = None
        self._buf = b""
        self._busy = False          # a dynamic request is in flight
        self._skip = 0              # request-body bytes left to discard
        self._close_after = False   # close once the current write flushes
        self._draining = False
        self._n_static = 0          # batched serve.requests delta
        self._n_304 = 0             # batched serve.response.not_modified delta
        self._sample = 0

    # -- connection lifecycle ------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.server._connections.add(self)
        if self.server._draining:
            transport.close()  # refuse late connections during drain

    def connection_lost(self, exc: Exception | None) -> None:
        self._flush_counters()
        self.server._connections.discard(self)
        self.server._check_drained()

    def _flush_counters(self) -> None:
        if self._n_static:
            registry = get_registry()
            registry.counter("serve.requests").inc(self._n_static)
            registry.counter("serve.artifact.hit").inc(self._n_static)
            if self._n_304:
                registry.counter("serve.response.not_modified").inc(self._n_304)
            self._n_static = 0
            self._n_304 = 0

    # -- request parsing -----------------------------------------------------

    def data_received(self, data: bytes) -> None:
        buf = self._buf + data if self._buf else data
        if self._busy:
            # A dynamic response is pending; preserve ordering by
            # buffering pipelined requests until it completes.
            self._buf = buf
            return
        self._process(buf)

    def _process(self, buf: bytes) -> None:
        transport = self.transport
        assert transport is not None
        wire = self.server._wire
        out: list[bytes | memoryview] = []
        sampling_t0 = 0.0
        while True:
            if self._skip:
                if len(buf) <= self._skip:
                    self._skip -= len(buf)
                    buf = b""
                    break
                buf = buf[self._skip :]
                self._skip = 0
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                if len(buf) > 65536:  # oversized header block: refuse
                    out.append(
                        _response_bytes(
                            400, error_bytes(400, "header block too large"),
                            JSON_CONTENT_TYPE, None, None, {}, close=True,
                        )
                    )
                    self._close_after = True
                    buf = b""
                break
            head = buf[:end]
            buf = buf[end + 4 :]
            line_end = head.find(b"\r\n")
            request_line = head if line_end < 0 else head[:line_end]
            headers_blob = b"" if line_end < 0 else head[line_end + 2 :]
            parts = request_line.split(b" ")
            if len(parts) != 3:
                out.append(
                    _response_bytes(
                        400, error_bytes(400, "malformed request line"),
                        JSON_CONTENT_TYPE, None, None, {}, close=True,
                    )
                )
                self._close_after = True
                break
            method, target, version = parts
            q = target.find(b"?")
            path = target[:q] if q >= 0 else target

            entry = wire.get(path) if method == b"GET" else None
            lower = headers_blob.lower()
            length = _header_value(lower, b"content-length")
            if length is not None and length.isdigit():
                self._skip = int(length)
            wants_close = (
                version == b"HTTP/1.0"
                and b"connection: keep-alive" not in lower
            ) or b"connection: close" in lower

            if entry is not None:
                # The static plane: sealed bytes, no handler, no locks.
                self._sample += 1
                if self._sample >= _TIMER_SAMPLE:
                    self._sample = 0
                    sampling_t0 = time.perf_counter()
                self._n_static += 1
                inm = (
                    _header_value(lower, b"if-none-match")
                    if b"if-none-match" in lower
                    else None
                )
                if inm is not None and etag_matches(inm, entry.etag):
                    self._n_304 += 1
                    out.append(entry.not_modified)
                else:
                    out.append(entry.full)
                if sampling_t0:
                    transport.writelines(out)
                    out = []
                    get_registry().timer("serve.request.artifact").observe(
                        time.perf_counter() - sampling_t0
                    )
                    sampling_t0 = 0.0
                if wants_close:
                    self._close_after = True
                    break
                continue

            # Dynamic dispatch: flush what we have, keep ordering by
            # parking the rest of the buffer until the handler answers.
            self._buf = buf
            if out:
                transport.writelines(out)
            self._busy = True
            task = self.server._loop.create_task(
                self._run_dynamic(method, path, headers_blob, lower, wants_close)
            )
            self.server._track(task)
            return

        self._buf = buf
        if out:
            transport.writelines(out)
        if self._n_static >= _FLUSH_EVERY:
            self._flush_counters()
        if self._close_after or (self._draining and not self._buf):
            transport.close()

    # -- dynamic path --------------------------------------------------------

    async def _run_dynamic(
        self,
        method: bytes,
        path: bytes,
        headers_blob: bytes,
        lower: bytes,
        wants_close: bool,
    ) -> None:
        transport = self.transport
        try:
            payload = await self.server.dispatch_dynamic(
                method.decode("latin-1"),
                path.decode("latin-1"),
                headers_blob,
                lower,
                close=wants_close,
            )
            if transport is not None and not transport.is_closing():
                transport.write(payload)
        finally:
            self._busy = False
            if wants_close:
                self._close_after = True
            if transport is not None and not transport.is_closing():
                if self._close_after:
                    transport.close()
                elif self._draining and not self._buf:
                    transport.close()
                elif self._buf:
                    buf, self._buf = self._buf, b""
                    self._process(buf)

    # -- drain ---------------------------------------------------------------

    def start_draining(self) -> None:
        """Answer everything already received, then close."""
        self._draining = True
        if self.transport is None or self.transport.is_closing():
            return
        if not self._busy and not self._buf:
            # Idle (or every buffered request already answered):
            # close() flushes any pending response bytes first.
            self.transport.close()


class AioReproServer:
    """The asyncio engine: sealed artifact plane + live dynamic path.

    Construct, then either :func:`run_aio` (blocking, with signal
    handling) or ``await server.start()`` inside an existing loop.

    Args:
        context: Shared pool/params/SLO context (same type the threaded
            engine uses).
        artifacts: The sealed store to serve; every artifact is
            precompiled to wire images here.
        host, port: Bind address (port 0 picks an ephemeral port).
        router: Route table for the dynamic path (default
            :func:`~repro.serve.handlers.build_router`).
        deadline_seconds: Wall-time budget per dynamic request.
        max_inflight: Dynamic requests allowed in flight before
            shedding with 503 (``/healthz`` and ``/metrics`` exempt).
        verbose: Log one access line per dynamic request.
        sock: Pre-bound listening socket (workers mode); overrides
            host/port.
    """

    def __init__(
        self,
        context: "ServeContext",
        artifacts: ArtifactStore,
        host: str = "127.0.0.1",
        port: int = 0,
        router: Router | None = None,
        deadline_seconds: float | None = None,
        max_inflight: int | None = None,
        verbose: bool = False,
        sock: socket.socket | None = None,
    ) -> None:
        self.context = context
        self.artifacts = artifacts
        self.router = router if router is not None else build_router()
        self.host = host
        self.port = port
        self.deadline_seconds = deadline_seconds
        self.max_inflight = max_inflight
        self.verbose = verbose
        self._sock = sock
        self._wire: dict[bytes, _Wire] = {}
        for artifact in artifacts:
            self._wire[artifact.path.encode("latin-1")] = _Wire(artifact)
        # Case-folded aliases for the common all-lowercase spelling of
        # scorecard paths; anything else resolves through the router.
        for artifact in artifacts:
            alias = artifact.path.lower().encode("latin-1")
            self._wire.setdefault(alias, self._wire[artifact.path.encode("latin-1")])
        self._connections: set[_AioProtocol] = set()
        self._tasks: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._listener: asyncio.AbstractServer | None = None
        self._draining = False
        self._drained: asyncio.Event | None = None
        self._inflight = 0
        self._executor = ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="repro-aio-dyn"
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind (unless given a socket) and start accepting."""
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        if self._sock is not None:
            self._listener = await self._loop.create_server(
                lambda: _AioProtocol(self), sock=self._sock
            )
        else:
            self._listener = await self._loop.create_server(
                lambda: _AioProtocol(self), self.host, self.port, backlog=512
            )
        bound = self._listener.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]
        get_registry().gauge("serve.engine.asyncio").set(1)
        _LOG.info("serve.aio.listening", host=self.host, port=self.port)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def initiate_shutdown(self) -> None:
        """Thread-safe graceful-drain trigger (signal handlers call this).

        Safe to call repeatedly and after the loop has already finished:
        a second SIGTERM (or a test teardown racing a completed drain)
        must never raise.
        """
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._begin_drain)
        except RuntimeError:  # loop closed between the check and the call
            pass

    def _begin_drain(self) -> None:
        if self._draining:
            return
        self._draining = True
        if self._listener is not None:
            self._listener.close()
        for protocol in list(self._connections):
            protocol.start_draining()
        self._check_drained()

    def _check_drained(self) -> None:
        if self._draining and not self._connections and not self._tasks:
            if self._drained is not None:
                self._drained.set()

    async def wait_drained(self, timeout: float | None = None) -> bool:
        """Await drain completion; True if fully drained in time."""
        assert self._drained is not None
        if timeout is None:
            await self._drained.wait()
            return True
        try:
            await asyncio.wait_for(self._drained.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def _close(self) -> None:
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        for protocol in list(self._connections):
            if protocol.transport is not None:
                protocol.transport.close()
        self._executor.shutdown(wait=True)

    def _track(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._task_done)

    def _task_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            _LOG.exception("serve.aio.task_error", task.exception())
        self._check_drained()

    # -- dynamic dispatch ----------------------------------------------------

    async def dispatch_dynamic(
        self,
        method: str,
        path: str,
        headers_blob: bytes,
        lower: bytes,
        close: bool,
    ) -> bytes:
        """Route + render one live request; returns full response bytes."""
        registry = get_registry()
        registry.counter("serve.requests").inc()
        rc = start_request_context(
            traceparent=_header_value(lower, b"traceparent"),
            request_id=_header_value(lower, b"x-request-id"),
            sample_rate=0.0,
            accept=_header_value(lower, b"accept") or "",
        )
        trace_headers = {
            "X-Request-Id": rc.request_id,
            "traceparent": rc.traceparent(),
        }
        t0 = time.perf_counter()
        try:
            route, path_params = self.router.match(method, path)
        except HTTPError as err:
            return _response_bytes(
                err.status,
                error_bytes(err.status, err.message, **err.extra),
                JSON_CONTENT_TYPE, None, err.headers, trace_headers, close,
            )

        # A routed request for a sealed artifact (case-folded path):
        # serve the canonical bytes, no handler.
        if route.cacheable:
            artifact = self.artifacts.find(route.name, path_params)
            if artifact is not None:
                registry.counter("serve.artifact.hit").inc()
                inm = _header_value(lower, b"if-none-match")
                if inm is not None and etag_matches(inm, artifact.etag):
                    registry.counter("serve.response.not_modified").inc()
                    return _response_bytes(
                        304, b"", artifact.content_type, artifact.etag,
                        None, trace_headers, close,
                    )
                return _response_bytes(
                    200, artifact.body, artifact.content_type, artifact.etag,
                    None, trace_headers, close,
                )

        shed_guarded = (
            self.max_inflight is not None and route.name not in _SHED_EXEMPT
        )
        if shed_guarded and self._inflight >= self.max_inflight:
            registry.counter("serve.requests.shed").inc()
            return _response_bytes(
                503, error_bytes(503, "server saturated; request shed"),
                JSON_CONTENT_TYPE, None, {"Retry-After": "1"},
                trace_headers, close,
            )

        if shed_guarded:
            self._inflight += 1
        try:
            status, body, content_type, etag, extra = await self._call_handler(
                route, path_params, rc, registry
            )
        finally:
            if shed_guarded:
                self._inflight -= 1

        duration = time.perf_counter() - t0
        slo = self.context.slo
        if slo is not None:
            slo.record(ok=status < 500, latency_seconds=duration)
        if self.verbose:
            _LOG.info(
                "serve.request.access",
                method=method, path=path, status=status,
                duration_ms=round(duration * 1e3, 2), endpoint=route.name,
            )
        return _response_bytes(
            status, body, content_type, etag, extra, trace_headers, close
        )

    async def _call_handler(
        self, route, path_params: dict[str, str], rc, registry
    ) -> tuple[int, bytes, str, str | None, dict[str, str] | None]:
        """Run the handler on the thread pool with the engine's hardening."""
        assert self._loop is not None
        deadline = self.deadline_seconds

        def call() -> tuple[int, bytes, str, str | None]:
            with use_context(rc):
                with registry.timer(f"serve.request.{route.name}").time():
                    with deadline_scope(deadline):
                        result = route.handler(self.context, **path_params)
            if isinstance(result, RawResponse):
                return result.status, result.body, result.content_type, None
            return 200, envelope_bytes(result), JSON_CONTENT_TYPE, None

        try:
            future = self._loop.run_in_executor(self._executor, call)
            if deadline is not None:
                status, body, content_type, etag = await asyncio.wait_for(
                    asyncio.shield(future), deadline
                )
            else:
                status, body, content_type, etag = await future
            return status, body, content_type, etag, None
        except HTTPError as err:
            return (
                err.status,
                error_bytes(err.status, err.message, **err.extra),
                JSON_CONTENT_TYPE, None, err.headers,
            )
        except asyncio.TimeoutError:
            registry.counter("serve.deadline.expired").inc()
            assert deadline is not None
            exc = DeadlineExpired(deadline)
            return (
                503, error_bytes(503, str(exc), reason="DeadlineExpired"),
                JSON_CONTENT_TYPE, None, {"Retry-After": "1"},
            )
        except (BreakerOpenError, PoolTimeoutError, DeadlineExpired) as exc:
            retry_after = max(1, math.ceil(getattr(exc, "retry_after", 1.0)))
            return (
                503,
                error_bytes(503, str(exc), reason=type(exc).__name__),
                JSON_CONTENT_TYPE, None, {"Retry-After": str(retry_after)},
            )
        except DatasetDegradedError as err:
            return (
                503,
                error_bytes(
                    503,
                    f"dataset {err.name!r} unavailable: {err.reason}",
                    reason="DatasetDegradedError", dataset=err.name,
                ),
                JSON_CONTENT_TYPE, None, None,
            )
        except Exception as exc:  # noqa: BLE001 - mapped to a 500 envelope
            registry.counter("serve.errors").inc()
            registry.counter(f"serve.errors.{route.name}").inc()
            _LOG.exception("serve.request.error", exc, endpoint=route.name)
            return (
                500, error_bytes(500, "internal server error"),
                JSON_CONTENT_TYPE, None, None,
            )


# -- entry points ------------------------------------------------------------


async def _amain(server: AioReproServer, handle_signals: bool) -> None:
    await server.start()
    loop = asyncio.get_running_loop()
    if handle_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.initiate_shutdown)
            except NotImplementedError:  # pragma: no cover - non-unix
                signal.signal(signum, lambda *_: server.initiate_shutdown())
    await server.wait_drained()
    await server._close()


def run_aio(server: AioReproServer, handle_signals: bool = True) -> None:
    """Serve until SIGTERM/SIGINT, answer everything accepted, return."""
    asyncio.run(_amain(server, handle_signals))


def _reuseport_socket(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if hasattr(socket, "SO_REUSEPORT"):
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    sock.listen(512)
    sock.setblocking(False)
    return sock


def run_workers(
    make_server,
    workers: int,
    host: str,
    port: int,
    on_bound=None,
    max_restarts: int = 5,
    restart_window: float = 30.0,
    backoff_base: float = 0.1,
    backoff_cap: float = 5.0,
) -> int:
    """Pre-forked multi-worker serving with a supervising parent.

    Binds once in the parent (so an ephemeral port is resolved before
    forking and printed URLs are accurate), then forks *workers*
    children.  Worker 0 inherits the parent's socket; the rest bind
    fresh ``SO_REUSEPORT`` sockets on the same port so the kernel
    spreads accepts across them (platforms without ``SO_REUSEPORT``
    fall back to sharing the one inherited socket).  The parent forwards
    SIGTERM/SIGINT to every worker and waits for all of them to drain.

    The parent *supervises*: a worker that exits without a shutdown
    having been requested is respawned into its slot after a bounded
    exponential backoff (``backoff_base * 2^restarts``, capped at
    ``backoff_cap`` seconds), counted in ``serve.workers.restarted``.
    More than *max_restarts* exits inside any *restart_window*-second
    span means the fleet is crash-looping — the supervisor stops
    respawning, terminates the survivors, and raises ``SystemExit(1)``
    so the failure is loud instead of a silent capacity leak.

    Workers notice a dead supervisor within ~0.5 s: each one polls
    ``os.getppid()`` and sends itself SIGTERM (the normal drain) once
    it is reparented, so a SIGKILLed supervisor never leaves workers
    serving on the port.

    Args:
        make_server: ``(sock) -> AioReproServer`` factory, called in
            each child **after** the fork (event loops must never cross
            a fork).
        workers: Child process count (>= 1).
        host, port: Bind address; port 0 resolves to an ephemeral port
            shared by every worker.
        on_bound: Optional ``(resolved_port) -> None`` called in the
            parent after binding, before forking (URL announcements).
        max_restarts: Worker exits tolerated per *restart_window*
            before the supervisor gives up.
        restart_window: Sliding window (seconds) for *max_restarts*.
        backoff_base: First-respawn delay per slot (seconds); doubles
            per subsequent restart of the same slot.
        backoff_cap: Upper bound on any respawn delay (seconds).

    Returns:
        The resolved port (useful when *port* was 0).

    Raises:
        SystemExit: code 1 when the crash-loop bound is exceeded.
    """
    sock0 = _reuseport_socket(host, port)
    resolved_port = sock0.getsockname()[1]
    if on_bound is not None:
        on_bound(resolved_port)
    reuseport = hasattr(socket, "SO_REUSEPORT")
    pids: dict[int, int] = {}  # live pid -> worker slot
    received: list[int] = []

    # The forwarder must be installed *before* the first fork: worker 0
    # can be serving (and a supervisor reacting to it) while the parent
    # is still forking the rest, and a SIGTERM in that window would hit
    # the default disposition and kill the parent without draining.
    def _forward(signum: int, _frame: object) -> None:
        received.append(signum)
        for child in list(pids):
            try:
                os.kill(child, signum)
            except ProcessLookupError:
                pass

    previous = {
        signum: signal.signal(signum, _forward)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }

    supervisor = os.getpid()

    def _watch_supervisor() -> None:
        while os.getppid() == supervisor:
            time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGTERM)

    def _spawn(index: int) -> None:
        pid = os.fork()
        if pid == 0:  # child
            status = 0
            try:
                for signum in previous:  # inherited _forward is the
                    signal.signal(signum, signal.SIG_DFL)  # parent's
                if received:  # shutdown already requested pre-fork
                    os._exit(0)
                threading.Thread(
                    target=_watch_supervisor, name="supervisor-watch", daemon=True
                ).start()
                if index == 0 or not reuseport:
                    sock = sock0
                else:
                    sock0.close()
                    sock = _reuseport_socket(host, resolved_port)
                server = make_server(sock)
                run_aio(server)
            except BaseException:
                import traceback

                traceback.print_exc()
                status = 1
            finally:
                os._exit(status)
        pids[pid] = index

    def _terminate_all() -> None:
        for child in list(pids):
            try:
                os.kill(child, signal.SIGTERM)
            except ProcessLookupError:
                pass
        for child in list(pids):
            while True:
                try:
                    os.waitpid(child, 0)
                    break
                except InterruptedError:
                    continue
                except ChildProcessError:
                    break
            pids.pop(child, None)

    from collections import deque

    restart_times: deque[float] = deque()
    slot_restarts = [0] * workers
    pending: list[tuple[float, int]] = []  # (respawn due, worker slot)
    try:
        for index in range(workers):
            _spawn(index)
        # A signal handled mid-loop only reached the already-forked
        # subset; resend it now that every pid is known (children that
        # already got it shut down idempotently).
        for signum in list(received):
            _forward(signum, None)
        while pids or pending:
            if received:
                pending.clear()  # shutting down: no more respawns
                if not pids:
                    break
            reaped = False
            for pid in list(pids):
                try:
                    done, status = os.waitpid(pid, os.WNOHANG)
                except InterruptedError:
                    continue
                except ChildProcessError:
                    done, status = pid, 0
                if done == 0:
                    continue
                slot = pids.pop(pid)
                reaped = True
                if received:
                    continue  # expected exit during shutdown
                exitcode = os.waitstatus_to_exitcode(status)
                now = time.monotonic()
                restart_times.append(now)
                while restart_times and now - restart_times[0] > restart_window:
                    restart_times.popleft()
                if len(restart_times) > max_restarts:
                    _LOG.error(
                        "serve.workers.crash_loop",
                        exits=len(restart_times),
                        window_seconds=restart_window,
                        slot=slot,
                        exitcode=exitcode,
                    )
                    _terminate_all()
                    raise SystemExit(1)
                delay = min(
                    backoff_cap, backoff_base * (2 ** slot_restarts[slot])
                )
                slot_restarts[slot] += 1
                pending.append((now + delay, slot))
                _LOG.warning(
                    "serve.worker.exited",
                    slot=slot,
                    pid=pid,
                    exitcode=exitcode,
                    respawn_in_seconds=round(delay, 3),
                    restarts=slot_restarts[slot],
                )
            if not received:
                now = time.monotonic()
                for item in list(pending):
                    due, slot = item
                    if due <= now:
                        pending.remove(item)
                        _spawn(slot)
                        get_registry().counter("serve.workers.restarted").inc()
            if (pids or pending) and not reaped:
                time.sleep(0.05)
    finally:
        try:
            sock0.close()
        except OSError:
            pass
        for signum, handler in previous.items():
            signal.signal(signum, handler)  # type: ignore[arg-type]
    return resolved_port


def create_aio_server(
    host: str = "127.0.0.1",
    port: int = 0,
    cache=None,
    jobs: int = 1,
    params: dict[str, object] | None = None,
    verbose: bool = False,
    strict: bool = False,
    deadline_seconds: float | None = None,
    max_inflight: int | None = None,
    breaker=None,
    artifacts: ArtifactStore | None = None,
    context: "ServeContext | None" = None,
    sock: socket.socket | None = None,
) -> AioReproServer:
    """A ready AioReproServer with its artifact plane built (not started).

    Mirrors :func:`repro.serve.server.create_server` for the asyncio
    engine; building the store pays the scenario build (single-flight)
    unless *artifacts* (and *context*) are passed in prebuilt.
    """
    from repro.serve.artifacts import build_artifact_store
    from repro.serve.handlers import ServeContext
    from repro.serve.pool import ScenarioPool

    if context is None:
        pool = ScenarioPool(
            cache=cache, build_workers=jobs, strict=strict, breaker=breaker
        )
        context = ServeContext(pool=pool, params=dict(params or {}))
    if artifacts is None:
        artifacts = build_artifact_store(context, workers=jobs)
    return AioReproServer(
        context,
        artifacts,
        host=host,
        port=port,
        deadline_seconds=deadline_seconds,
        max_inflight=max_inflight,
        verbose=verbose,
        sock=sock,
    )
