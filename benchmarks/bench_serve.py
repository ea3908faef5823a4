"""Benchmark the HTTP serving layer and emit ``BENCH_serve.json``.

Forks one server process (the client and server must not share a GIL —
on the single-core CI box an in-process server would serialise against
its own load generator) that seals the artifact plane with
``create_aio_server``, waits for readiness, then drives the static
response surface with raw-socket HTTP/1.1 **keep-alive** clients.

A **warmup phase is excluded from measurement** (connections
established, branch predictors warm), then a timed phase runs.
Client-side failures never crash the run: errors and timeouts are
counted and recorded in the artifact (schema ``repro.bench.serve/2``,
whose ``engines`` map now holds the one ``asyncio`` entry).

The serving invariants are proven from the *server's own* ``/metrics``
exposition, scraped before and after the timed phase: zero datasets
rebuild under load, and the phase is served from the artifact plane.
The script exits non-zero if either fails.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py \
        [--out BENCH_serve.json] [--connections 4] \
        [--asyncio-requests 4000]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import socket
import sys
import threading
import time
from pathlib import Path

from repro.core import exhibit_ids
from repro.obs import percentile
from repro.obs.openmetrics import ACCEPT_TOKEN, parse_openmetrics

SCHEMA = "repro.bench.serve/2"

#: Counters scraped around the timed phase (OpenMetrics family names).
_COUNTER_FAMILIES = (
    "scenario_dataset_built",
    "serve_requests",
    "serve_artifact_hit",
)


def _request_mix() -> list[str]:
    """The static surface every client cycles through."""
    paths = [f"/v1/exhibit/{exhibit_id}" for exhibit_id in exhibit_ids()]
    paths += ["/v1/report", "/v1/narrative", "/v1/scorecard/VE", "/v1/exhibits"]
    return paths


class KeepAliveClient:
    """A raw-socket HTTP client that reuses one connection when it can.

    Every request rides the same HTTP/1.1 keep-alive connection; if the
    server answers HTTP/1.0 or ``Connection: close``, the client
    reconnects and counts the reconnect.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.reconnects = -1  # the initial connect is not a reconnect
        self._sock: socket.socket | None = None
        self._buf = b""
        self._connect()

    def _connect(self) -> None:
        self.close()
        sock = socket.create_connection((self.host, self.port), self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._buf = b""
        self.reconnects += 1

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def reconnect(self) -> None:
        """Recover after an error/timeout (the old connection is suspect)."""
        self._connect()

    def _recv(self) -> None:
        assert self._sock is not None
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        self._buf += chunk

    def get(self, path: str, accept: str | None = None) -> tuple[int, bytes]:
        """GET *path*; returns (status, body).  Reconnects on 1.0 close."""
        if self._sock is None:
            self._connect()
        extra = f"Accept: {accept}\r\n" if accept else ""
        request = f"GET {path} HTTP/1.1\r\nHost: bench\r\n{extra}\r\n"
        self._sock.sendall(request.encode("latin-1"))
        while b"\r\n\r\n" not in self._buf:
            self._recv()
        head, self._buf = self._buf.split(b"\r\n\r\n", 1)
        status = int(head.split(b" ", 2)[1])
        lower = head.lower()
        length = 0
        marker = lower.find(b"content-length:")
        if marker >= 0:
            line_end = lower.find(b"\r\n", marker)
            if line_end < 0:
                line_end = len(lower)
            length = int(lower[marker + 15 : line_end].strip())
        while len(self._buf) < length:
            self._recv()
        body, self._buf = self._buf[:length], self._buf[length:]
        if head.startswith(b"HTTP/1.0") or b"connection: close" in lower:
            self._connect()  # the server will not take another request
        return status, body


def _fork_server(quiet: bool) -> tuple[int, int]:
    """Fork a warm server child; returns (pid, port).

    The child binds port 0 and reports the resolved port over a pipe
    *before* paying the scenario/artifact build, so the parent can start
    its readiness probe immediately (connections queue in the backlog).
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: serve until SIGTERM, then drain and exit
        os.close(read_fd)
        status = 0
        try:
            if quiet:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, 2)
            from repro.serve.aio import create_aio_server, run_aio

            sock = socket.create_server(("127.0.0.1", 0), backlog=512)
            os.write(write_fd, str(sock.getsockname()[1]).encode())
            os.close(write_fd)
            run_aio(create_aio_server(sock=sock))
        except BaseException:  # noqa: BLE001 - report, then hard-exit
            import traceback

            traceback.print_exc()
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    port = int(os.read(read_fd, 16))
    os.close(read_fd)
    return pid, port


def _wait_ready(host: str, port: int, deadline_seconds: float = 300.0) -> None:
    """Block until /healthz answers (the child may still be building)."""
    deadline = time.monotonic() + deadline_seconds
    while True:
        try:
            client = KeepAliveClient(host, port, timeout=deadline_seconds)
            status, _ = client.get("/healthz")
            client.close()
            if status == 200:
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise SystemExit(f"{host}:{port} not ready after {deadline_seconds}s")
        time.sleep(0.2)


def _scrape_counters(host: str, port: int) -> dict[str, float]:
    """The interesting counter totals from the server's own /metrics."""
    client = KeepAliveClient(host, port)
    status, body = client.get("/metrics", accept=ACCEPT_TOKEN)
    client.close()
    if status != 200:
        raise SystemExit(f"/metrics scrape failed: {status}")
    families = parse_openmetrics(body.decode("utf-8"))
    out: dict[str, float] = {}
    for name in _COUNTER_FAMILIES:
        family = families.get(name)
        value = 0.0
        if family is not None:
            value = sum(
                sample_value
                for sample_name, _, sample_value in family.samples
                if sample_name == f"{name}_total"
            )
        out[name] = value
    return out


def _load(
    host: str,
    port: int,
    paths: list[str],
    connections: int,
    requests_per_connection: int,
    warmup_per_connection: int,
    timeout: float,
) -> dict:
    """One measured phase: warmup (excluded), barrier, timed burst."""
    latencies_per_worker: list[list[float]] = [[] for _ in range(connections)]
    stats_lock = threading.Lock()
    totals = {"errors": 0, "timeouts": 0, "reconnects": 0}
    barrier = threading.Barrier(connections + 1)  # workers + the clock

    def worker(worker_id: int) -> None:
        latencies = latencies_per_worker[worker_id]
        errors = timeouts = 0
        client: KeepAliveClient | None = None
        try:
            client = KeepAliveClient(host, port, timeout)
        except OSError:
            errors += 1
        # Warmup covers every path in the mix at least once per
        # connection, whatever the configured count.
        for i in range(max(warmup_per_connection, len(paths))):
            if client is None:
                break
            try:
                client.get(paths[(worker_id + i) % len(paths)])
            except TimeoutError:
                timeouts += 1
                client.reconnect()
            except OSError:
                errors += 1
                try:
                    client.reconnect()
                except OSError:
                    client = None
        barrier.wait()
        for i in range(requests_per_connection):
            if client is None:
                errors += 1
                continue
            path = paths[(worker_id + i) % len(paths)]
            t0 = time.perf_counter()
            try:
                status, body = client.get(path)
                if status != 200 or not body:
                    errors += 1
                    continue
            except TimeoutError:
                timeouts += 1
                try:
                    client.reconnect()
                except OSError:
                    client = None
                continue
            except OSError:
                errors += 1
                try:
                    client.reconnect()
                except OSError:
                    client = None
                continue
            latencies.append(time.perf_counter() - t0)
        reconnects = client.reconnects if client is not None else 0
        if client is not None:
            client.close()
        with stats_lock:
            totals["errors"] += errors
            totals["timeouts"] += timeouts
            totals["reconnects"] += reconnects

    workers = [
        threading.Thread(target=worker, args=(i,)) for i in range(connections)
    ]
    for w in workers:
        w.start()
    barrier.wait()  # releases the timed phase on every worker at once
    t0 = time.perf_counter()
    for w in workers:
        w.join()
    elapsed = time.perf_counter() - t0

    latencies = [value for bucket in latencies_per_worker for value in bucket]
    if not latencies:
        raise SystemExit(
            f"no successful requests ({totals['errors']} errors, "
            f"{totals['timeouts']} timeouts)"
        )
    return {
        "requests": len(latencies),
        "seconds": round(elapsed, 4),
        "requests_per_second": round(len(latencies) / elapsed, 1),
        "latency_ms": {
            "p50": round(percentile(latencies, 0.50) * 1e3, 3),
            "p95": round(percentile(latencies, 0.95) * 1e3, 3),
            "p99": round(percentile(latencies, 0.99) * 1e3, 3),
            "max": round(max(latencies) * 1e3, 3),
        },
        "client_errors": totals["errors"],
        "client_timeouts": totals["timeouts"],
        "client_reconnects": totals["reconnects"],
    }


def bench_server(
    connections: int,
    requests_per_connection: int,
    warmup_per_connection: int,
    timeout: float,
    quiet: bool,
) -> dict:
    """Fork, warm up, measure, verify invariants, drain the server."""
    paths = _request_mix()
    pid, port = _fork_server(quiet)
    try:
        _wait_ready("127.0.0.1", port)
        before = _scrape_counters("127.0.0.1", port)
        warm = _load(
            "127.0.0.1",
            port,
            paths,
            connections,
            requests_per_connection,
            warmup_per_connection,
            timeout,
        )
        after = _scrape_counters("127.0.0.1", port)
    finally:
        os.kill(pid, signal.SIGTERM)
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise SystemExit(f"server exited abnormally (status {status})")

    # The serving invariants this benchmark exists to defend.
    built_delta = after["scenario_dataset_built"] - before["scenario_dataset_built"]
    if built_delta != 0:
        raise SystemExit(f"{built_delta:.0f} datasets rebuilt under load")
    if after["serve_artifact_hit"] <= before["serve_artifact_hit"]:
        raise SystemExit("warm phase did not grow serve_artifact_hit")

    return {
        "connections": connections,
        "requests_per_connection": requests_per_connection,
        "warmup_requests": max(warmup_per_connection, len(paths)) * connections,
        "warm": warm,
        "counters": {name: after[name] for name in _COUNTER_FAMILIES},
    }


def bench(
    connections: int,
    asyncio_requests: int,
    warmup: int,
    timeout: float,
    quiet: bool,
) -> dict:
    """The server end to end; returns the ``repro.bench.serve/2`` dict."""
    aio = bench_server(connections, asyncio_requests, warmup, timeout, quiet)
    return {
        "schema": SCHEMA,
        "endpoints": len(_request_mix()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "engines": {"asyncio": aio},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument("--connections", type=int, default=4)
    parser.add_argument(
        "--asyncio-requests",
        type=int,
        default=4000,
        help="timed requests per connection",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=200,
        help="excluded warmup requests per connection",
    )
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument(
        "--server-logs",
        action="store_true",
        help="let the forked server write its logs to stderr",
    )
    args = parser.parse_args(argv)

    artifact = bench(
        connections=args.connections,
        asyncio_requests=args.asyncio_requests,
        warmup=args.warmup,
        timeout=args.timeout,
        quiet=not args.server_logs,
    )
    Path(args.out).write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    stats = artifact["engines"]["asyncio"]["warm"]
    print(
        f"{stats['requests_per_second']:>9.1f} req/s   "
        f"p50 {stats['latency_ms']['p50']:>7.3f}ms   "
        f"p99 {stats['latency_ms']['p99']:>7.3f}ms   "
        f"({stats['requests']} requests, {stats['client_errors']} errors, "
        f"{stats['client_timeouts']} timeouts)"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
