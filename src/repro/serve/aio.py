"""The HTTP server: one asyncio engine in front of the artifact plane.

One event loop, one ``asyncio.Protocol`` per connection, HTTP/1.1 with
keep-alive.  The server holds one current
:class:`~repro.serve.server.ServingSurface` (context, artifact plane,
wire table) and answers each request one of two ways
(``docs/SERVING.md`` tabulates what each carries):

* **Static** -- a GET whose path is in the wire table: one dict lookup
  and one ``transport.write`` of a precompiled :class:`memoryview`.  No
  handler, no locks, no per-request headers.
* **Live** -- everything else (``/healthz``, ``/metrics``,
  ``POST /v1/ingest/<format>``, errors, case-folded paths, a static
  path not rendered yet).  Handlers run on a small thread pool, which
  bounds how many run at once; with ``verbose``, each is logged as one
  access line.

**The world comes first.**  :meth:`AioServer.start` builds the current
surface's scenario before it creates the listener, so no request waits
on a scenario build or sees one fail.

**The plane rule.**  A server given a sealed store serves the whole
plane from its first request (:func:`create_aio_server` seals one when
called without).  A server built without one (``repro serve``) fills
its plane lazily: a static path's first request renders it with
:func:`~repro.serve.artifacts.render_artifact`, the seal's own render,
and memoizes it into the surface that request captured.  Artifacts are
addressed by the SHA-256 of their bytes, so both serve one plane.

An ingest apply publishes a new surface with
:meth:`AioServer.swap_surface`; ``_process`` reads the surface once per
call, so a request sees one generation whole.

Shutdown is graceful: SIGTERM/SIGINT stop the accept loop, idle
connections close, and every request already received is answered
before the process exits; with ingest enabled, a running apply then
finishes and the journal is closed.  One process serves one port;
more cores mean more processes, each on its own port.

Static responses count into ``serve.requests`` / ``serve.artifact.hit``
in batches (every :data:`_FLUSH_EVERY` and on disconnect), and one in
:data:`_TIMER_SAMPLE` lands in the ``serve.request.artifact`` timer;
live ones count at once and time each handler run or render into
``serve.request.<endpoint>``, which is also its span while tracing is
enabled (``--trace``).  Static hits are never spanned.
"""

from __future__ import annotations

import asyncio
import signal
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING
from urllib.parse import parse_qs

from repro.core.degrade import DatasetDegradedError
from repro.obs import get_logger, get_registry, trace_span
from repro.serve.artifacts import Artifact, ArtifactStore, render_artifact
from repro.serve.handlers import build_router
from repro.serve.router import (
    JSON_CONTENT_TYPE,
    HTTPError,
    RawResponse,
    Route,
    Router,
    envelope_bytes,
    error_bytes,
    etag_matches,
)
from repro.serve.server import MAX_BODY_BYTES, ServingSurface

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
    405: "Method Not Allowed", 413: "Content Too Large",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

#: A live outcome: status, body, content type, ETag, extra headers.
_Outcome = tuple[int, bytes, str, "str | None", "dict[str, str] | None"]


def _reason(status: int) -> str:
    return _REASONS.get(status, "Unknown")


def _response_bytes(
    status: int,
    body: bytes,
    content_type: str,
    etag: str | None,
    extra_headers: dict[str, str] | None,
    close: bool,
) -> bytes:
    """A dynamically assembled HTTP/1.1 response."""
    lines = [f"HTTP/1.1 {status} {_reason(status)}"]
    if status != 304:
        lines.append(f"Content-Type: {content_type}")
        lines.append(f"Content-Length: {len(body)}")
    if etag is not None:
        lines.append(f"ETag: {etag}")
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    if close:
        lines.append("Connection: close")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head if status == 304 else head + body


def _error(err: HTTPError) -> _Outcome:
    return (
        err.status,
        error_bytes(err.status, err.message, **err.extra),
        JSON_CONTENT_TYPE, None, err.headers,
    )


def _header_value(blob: bytes, lower_blob: bytes, name: bytes) -> str | None:
    """The value of header *name* (lower-case), as sent, or None.

    Searched in the lower-cased *lower_blob*; the value is sliced from
    *blob* at the same offsets, so its case survives.
    """
    needle = name + b":"
    start = lower_blob.find(needle)
    while start > 0 and lower_blob[start - 1 : start] != b"\n":
        start = lower_blob.find(needle, start + 1)
    if start < 0:
        return None
    end = lower_blob.find(b"\r\n", start)
    if end < 0:
        end = len(lower_blob)
    return blob[start + len(needle) : end].strip().decode("latin-1")


@dataclass(slots=True, eq=False)
class _Request:
    """One live request, parsed on the loop and answered off it."""

    surface: ServingSurface  # the generation the request captured
    method: str
    path: str
    query: str
    blob: bytes  # the header block, as sent
    lower: bytes  # the header block, lower-cased
    close: bool
    route: Route | None = None
    params: dict[str, str] = field(default_factory=dict)
    error: HTTPError | None = None  # routing or body-framing failure
    body: bytes | bytearray = b""
    length: int = 0  # declared body length while the body is arriving


class _AioProtocol(asyncio.Protocol):
    """Per-connection HTTP/1.1 state machine over the surface's wire table."""

    __slots__ = (
        "server", "transport", "_buf", "_busy", "_skip", "_close_after",
        "_draining", "_n_static", "_n_304", "_sample", "_parked",
    )

    def __init__(self, server: "AioServer") -> None:
        self.server = server
        self.transport: asyncio.Transport | None = None
        self._buf = b""
        self._busy = False          # a live request is in flight
        self._skip = 0              # request-body bytes left to discard
        self._close_after = False   # close once the current write flushes
        self._draining = False
        self._n_static = 0          # batched serve.requests delta
        self._n_304 = 0             # batched serve.response.not_modified delta
        self._sample = 0
        self._parked: _Request | None = None  # waiting for its body

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
        parked = self._parked
        if parked is not None:
            # A live request's body is still arriving.
            take = parked.length - len(parked.body)
            parked.body += data[:take]
            if len(parked.body) < parked.length:
                return
            self._parked = None
            parked.body = bytes(parked.body)
            self._buf = data[take:]
            self._dispatch(parked)
            return
        buf = self._buf + data if self._buf else data
        if self._busy:
            # A live response is pending; preserve ordering by
            # buffering pipelined requests until it completes.
            self._buf = buf
            return
        self._process(buf)

    def _process(self, buf: bytes) -> None:
        transport = self.transport
        assert transport is not None
        server = self.server
        surface = server.surface  # one generation for every request below
        wire = surface.wire
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
                            JSON_CONTENT_TYPE, None, None, close=True,
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
                        JSON_CONTENT_TYPE, None, None, close=True,
                    )
                )
                self._close_after = True
                break
            method, target, version = parts
            q = target.find(b"?")
            path = target[:q] if q >= 0 else target

            entry = wire.get(path) if method == b"GET" else None
            lower = headers_blob.lower()
            length = _header_value(headers_blob, lower, b"content-length")
            wants_close = version == b"HTTP/1.0"
            if b"connection:" in lower:
                value = _header_value(headers_blob, lower, b"connection") or ""
                tokens = {token.strip() for token in value.lower().split(",")}
                wants_close = "close" in tokens or (
                    wants_close and "keep-alive" not in tokens
                )

            if entry is not None:
                # The static plane: sealed bytes, no handler, no locks.
                if length is not None and length.isdigit():
                    self._skip = int(length)
                self._sample += 1
                if self._sample >= _TIMER_SAMPLE:
                    self._sample = 0
                    sampling_t0 = time.perf_counter()
                self._n_static += 1
                inm = (
                    _header_value(headers_blob, lower, b"if-none-match")
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

            # The live path: flush what we have, keep ordering by parking
            # the rest of the buffer until the handler answers.
            request = _Request(
                surface,
                method.decode("latin-1"),
                path.decode("latin-1"),
                target[q + 1 :].decode("latin-1") if q >= 0 else "",
                headers_blob,
                lower,
                wants_close,
            )
            try:
                request.route, request.params = server.router.match(
                    request.method, request.path
                )
            except HTTPError as err:
                request.error = err
            if request.route is not None and request.route.accepts_body:
                buf = self._frame_body(request, length, buf)
            elif length is not None and length.isdigit():
                self._skip = int(length)
            self._buf = buf
            if out:
                transport.writelines(out)
            if self._parked is None:
                self._dispatch(request)
            return

        self._buf = buf
        if out:
            transport.writelines(out)
        if self._n_static >= _FLUSH_EVERY:
            self._flush_counters()
        if self._close_after or (self._draining and not self._buf):
            transport.close()

    def _frame_body(self, request: _Request, length: str | None, buf: bytes) -> bytes:
        """Take *request*'s body off *buf*; returns what follows it.

        An unparseable or oversized ``Content-Length`` becomes the
        request's error (422 / 413) without buffering the body, and the
        connection closes after the answer, since the next request's
        start is unknown.  A body not yet whole parks the request until
        :meth:`data_received` completes it.
        """
        length = "0" if length is None else length
        if not length.isdigit():
            request.error = HTTPError(422, "unparseable Content-Length")
        elif int(length) > MAX_BODY_BYTES:
            request.error = HTTPError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte bound",
            )
        if request.error is not None:
            request.close = True
            return b""
        need = int(length)
        if len(buf) < need:
            request.body = bytearray(buf)
            request.length = need
            self._parked = request
            return b""
        request.body = buf[:need]
        return buf[need:]

    # -- live path -----------------------------------------------------------

    def _dispatch(self, request: _Request) -> None:
        self._busy = True
        server = self.server
        server._track(server._loop.create_task(self._run_live(request)))

    async def _run_live(self, request: _Request) -> None:
        transport = self.transport
        try:
            payload = await self.server._answer(request)
            if transport is not None and not transport.is_closing():
                transport.write(payload)
        finally:
            self._busy = False
            if request.close:
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
            # Idle (or every buffered request already answered, or a
            # body still arriving): close() flushes pending bytes first.
            self.transport.close()


class AioServer:
    """The server: a serving surface behind an asyncio HTTP/1.1 front end.

    Construct, then either :func:`run_aio` (blocking, with signal
    handling) or ``await server.start()`` inside an existing loop.

    Args:
        context: Shared pool/params context of the first surface.
        artifacts: A sealed store to serve from the first request; None
            starts with an empty plane that fills as each static path is
            first requested (see the module docstring's plane rule).
        host, port: Bind address (port 0 picks an ephemeral port).
        router: Route table for the live path (default
            :func:`~repro.serve.handlers.build_router`).
        verbose: Log one access line per live request.
        sock: Pre-bound listening socket (``repro serve`` binds its
            port before it builds anything); overrides host/port.
    """

    def __init__(
        self,
        context: "ServeContext",
        artifacts: ArtifactStore | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        router: Router | None = None,
        verbose: bool = False,
        sock: socket.socket | None = None,
    ) -> None:
        #: The current serving generation; replaced whole by
        #: :meth:`swap_surface`.
        self.surface = ServingSurface(context, artifacts or ())
        self.router = router if router is not None else build_router()
        self.host = host
        self.port = port
        self.verbose = verbose
        self._sock = sock
        self._connections: set[_AioProtocol] = set()
        self._tasks: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._listener: asyncio.AbstractServer | None = None
        self._draining = False
        self._drained: asyncio.Event | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="repro-aio-dyn"
        )

    @property
    def context(self) -> "ServeContext":
        """The current surface's context."""
        return self.surface.context

    def swap_surface(
        self, context: "ServeContext", artifacts: ArtifactStore | None
    ) -> ServingSurface:
        """Replace the serving surface with a new generation (any thread).

        The new wire table compiles on the calling thread; one attribute
        store then publishes it.  Requests that captured the old surface
        finish on it; new requests see the new one.
        """
        surface = ServingSurface(
            context, artifacts or (), generation=self.surface.generation + 1
        )
        self.surface = surface
        registry = get_registry()
        registry.counter("serve.surface.swapped").inc()
        registry.gauge("serve.surface.generation").set(surface.generation)
        _LOG.info(
            "serve.surface.swapped",
            generation=surface.generation,
            artifacts=artifacts.fingerprint() if artifacts is not None else None,
        )
        return surface

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Build the world, then bind (unless given a socket) and accept.

        The current surface's scenario is built before the listener
        exists, so a build failure raises here and the server never
        listens.  With ingest enabled, journal recovery has already
        swapped in the surface whose world this builds.  Nothing else
        runs on the loop yet, so the build may block it.
        """
        self.context.scenario()
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
        if self.context.ingest is not None:
            self.context.ingest.close()

    def _track(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._task_done)

    def _task_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            _LOG.exception("serve.aio.task_error", task.exception())
        self._check_drained()

    # -- the live path -------------------------------------------------------

    async def _answer(self, request: _Request) -> bytes:
        """Answer one live request; returns the full response bytes."""
        get_registry().counter("serve.requests").inc()
        t0 = time.perf_counter()
        if request.error is not None:
            outcome = _error(request.error)
        else:
            outcome = await self._respond(request)
        if self.verbose:
            _LOG.info(
                "serve.request.access",
                method=request.method, path=request.path, status=outcome[0],
                duration_ms=round((time.perf_counter() - t0) * 1e3, 2),
                endpoint=request.route.name if request.route else None,
            )
        return _response_bytes(*outcome, request.close)

    async def _respond(self, request: _Request) -> _Outcome:
        route = request.route
        assert route is not None
        if route.cacheable:
            artifact = request.surface.find(route.name, request.params)
            if artifact is not None:
                return _artifact_outcome(artifact, request, hit=True)

        result = await self._call_handler(request)
        if isinstance(result, Artifact):
            # On the loop thread, into the surface the request captured.
            request.surface.remember(result)
            return _artifact_outcome(result, request, hit=False)
        return result

    async def _call_handler(self, request: _Request) -> "_Outcome | Artifact":
        """Run the handler (or the plane render) on the thread pool.

        Inside the endpoint's span and timer.  A cacheable route yields
        the freshly rendered :class:`Artifact`.
        """
        assert self._loop is not None
        route = request.route
        assert route is not None
        context = request.surface.context
        registry = get_registry()
        name = f"serve.request.{route.name}"

        def call() -> "_Outcome | Artifact":
            with trace_span(name), registry.timer(name).time():
                result = _render(route, context, request)
            if isinstance(result, Artifact):
                return result
            if isinstance(result, RawResponse):
                return result.status, result.body, result.content_type, None, None
            return 200, envelope_bytes(result), JSON_CONTENT_TYPE, None, None

        try:
            return await self._loop.run_in_executor(self._executor, call)
        except HTTPError as err:
            return _error(err)
        except DatasetDegradedError as err:
            # Every static endpoint annotates degradation instead (report
            # and scorecard coverage, exhibit and narrative placeholders);
            # this guards any handler that does not with a structured 503.
            return _error(
                HTTPError(
                    503, f"dataset {err.name!r} unavailable: {err.reason}",
                    reason="DatasetDegradedError", dataset=err.name,
                )
            )
        except Exception as exc:  # noqa: BLE001 - mapped to a 500 envelope
            registry.counter("serve.errors").inc()
            registry.counter(f"serve.errors.{route.name}").inc()
            _LOG.exception("serve.request.error", exc, endpoint=route.name)
            return _error(HTTPError(500, "internal server error"))


def _render(route: Route, context: "ServeContext", request: _Request):
    """One live render: the plane's render for a cacheable route, else the handler."""
    if route.cacheable:
        return render_artifact(context, route.name, request.params)
    kwargs: dict[str, object] = dict(request.params)
    if route.name == "metrics":
        kwargs["accept"] = _header_value(request.blob, request.lower, b"accept")
    if route.accepts_body:
        kwargs["body"] = request.body
        kwargs["meta"] = {
            key: values[-1] for key, values in parse_qs(request.query).items()
        }
    return route.handler(context, **kwargs)


def _artifact_outcome(artifact: Artifact, request: _Request, hit: bool) -> _Outcome:
    """A plane artifact as a 200, or a bodiless 304 on a matching ETag."""
    registry = get_registry()
    if hit:
        registry.counter("serve.artifact.hit").inc()
    inm = _header_value(request.blob, request.lower, b"if-none-match")
    if inm is not None and etag_matches(inm, artifact.etag):
        registry.counter("serve.response.not_modified").inc()
        return 304, b"", artifact.content_type, artifact.etag, None
    return 200, artifact.body, artifact.content_type, artifact.etag, None


# -- entry points ------------------------------------------------------------


async def _amain(server: AioServer, handle_signals: bool) -> None:
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


def run_aio(server: AioServer, handle_signals: bool = True) -> None:
    """Serve until SIGTERM/SIGINT, answer everything accepted, return."""
    asyncio.run(_amain(server, handle_signals))


def create_aio_server(
    host: str = "127.0.0.1",
    port: int = 0,
    cache=None,
    params: dict[str, object] | None = None,
    verbose: bool = False,
    strict: bool = False,
    artifacts: ArtifactStore | None = None,
    context: "ServeContext | None" = None,
    sock: socket.socket | None = None,
) -> AioServer:
    """A ready AioServer with its artifact plane sealed (not started).

    Without *artifacts*, seals the whole plane before returning (building
    the scenario first if the pool is cold), so the first request is
    already static.  Pass a prebuilt *artifacts* (and its *context*) to
    skip that.  For a server that fills its plane on first request
    instead, construct :class:`AioServer` without a store.
    """
    from repro.serve.artifacts import build_artifact_store
    from repro.serve.handlers import ServeContext
    from repro.serve.pool import ScenarioPool

    if context is None:
        pool = ScenarioPool(cache=cache, strict=strict)
        context = ServeContext(pool=pool, params=dict(params or {}))
    if artifacts is None:
        artifacts = build_artifact_store(context)
    return AioServer(
        context,
        artifacts,
        host=host,
        port=port,
        verbose=verbose,
        sock=sock,
    )
