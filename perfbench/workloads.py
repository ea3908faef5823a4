"""The three journeys, driven from outside the program.

Each workload function sets up several times (the median is
``setup_s``), runs its timed phase for the requested seconds and checks
every output it sees.  Each set-up is followed by its share of the gated
work, so a run samples the host at several points in time.  The
functions return a :class:`Journey`;
``run.py`` turns it into the end-to-end metrics.

* ``report-warm``: an analyst re-running ``repro report`` on a warm
  cache, one serial subprocess at a time.
* ``serve-static``: one keep-alive client in a closed loop against the
  asyncio server's sealed artifact plane.
* ``ingest-append``: a producer posting NDT batches to a live
  ``repro serve --ingest-dir`` and polling until ``/v1/report`` changes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from checks import Expected, Tally, plane_fingerprint, quoted, sha256
from client import KeepAliveClient, call, encode_get, get_data, openmetrics_counters
from harness import (
    Children,
    RunDir,
    StealMeter,
    cpu_seconds,
    free_port,
    median,
    vm_hwm_mb,
    warm_bytecode,
)
from inputs import ndt_batch, request_sequence
from spans import Tracer

PYTHON = sys.executable
REPORT_TIMEOUT_S = 90.0
START_TIMEOUT_S = 120.0
VISIBLE_TIMEOUT_S = 90.0

#: Fixed, coarse interval at which the producer polls for visibility.
POLL_INTERVAL_S = 0.05

#: ``/metrics`` counter families that prove the plane served the load.
SERVE_COUNTERS = (
    "scenario_dataset_built",
    "serve_artifact_hit",
    "serve_response_not_modified",
)

#: Fills a dataset cache the way any first run would (serial, lenient).
FILL_CACHE = (
    "import sys; from repro.core import Scenario; from repro.exec import "
    "DatasetCache; Scenario(cache=DatasetCache(sys.argv[1]), strict=False)"
    ".build_all()"
)


@dataclass
class Run:
    """Everything one benchmark run shares between its phases."""

    workload: str
    seed: int
    seconds: float
    setups: int
    dir: RunDir
    children: Children
    tracer: Tracer
    tally: Tally
    expected: Expected


@dataclass
class Journey:
    """What a workload measured.

    ``op_s`` holds the gated operation times; ``completed`` counts every
    operation that succeeded in the timed phase (by default, ``op_s``).
    """

    setup_s: list[float]
    op_s: list[float]
    timed_s: float
    peak_rss_mb: float
    steal_share: float
    notes: dict[str, object] = field(default_factory=dict)
    completed: int = -1

    def __post_init__(self) -> None:
        if self.completed < 0:
            self.completed = len(self.op_s)


def _fill_cache(run: Run, cache: Path) -> float:
    with run.tracer.span("fill_cache"):
        finished = run.children.run([PYTHON, "-c", FILL_CACHE, str(cache)],
                                    START_TIMEOUT_S)
    if finished.returncode != 0:
        raise RuntimeError(f"cache fill exited {finished.returncode}")
    return finished.seconds


# -- report-warm -----------------------------------------------------------------


def report_warm(run: Run) -> Journey:
    """Serial ``repro report`` runs on a warm per-run cache.

    Each set-up is the cold first run that fills a fresh cache; after
    each, the report re-runs on that cache for an equal share of the
    timed phase, so one run samples the host at as many points in time
    as it has set-ups.
    """
    tracer, tally = run.tracer, run.tally
    notes = {"bytecode_s": warm_bytecode(run.children)}
    out = run.dir.path / "report.txt"
    setups: list[float] = []
    ops: list[float] = []
    rss: list[float] = []
    timed = 0.0
    steal = StealMeter()
    for i in range(run.setups):
        cache = run.dir.sub(f"cache{i}")
        command = [PYTHON, "-m", "repro", "--cache-dir", str(cache), "report"]
        with tracer.span("report-warm.setup"):
            finished = run.children.run(command, REPORT_TIMEOUT_S, out)
        _check_report(tally, finished.returncode, out, run.expected)
        setups.append(finished.seconds)
        start = time.perf_counter()
        while True:
            with tracer.span("report-warm.report"):
                finished = run.children.run(command, REPORT_TIMEOUT_S, out)
            if _check_report(tally, finished.returncode, out, run.expected):
                ops.append(finished.seconds)
                rss.append(finished.peak_rss_mb)
            if time.perf_counter() - start >= run.seconds / run.setups:
                break
        timed += time.perf_counter() - start
    if not ops:
        raise RuntimeError("no repro report run succeeded")
    return Journey(setups, ops, timed, median(rss), steal.share(), notes)


def _check_report(tally: Tally, returncode: int, out: Path, expected: Expected) -> bool:
    if returncode != 0:
        tally.check(False, f"repro report exited {returncode}")
        return False
    return tally.check(
        sha256(out.read_bytes()) == expected.report_stdout_sha256,
        "repro report stdout differs from the pinned sha256",
    )


# -- serve-static ----------------------------------------------------------------


def serve_static(run: Run) -> Journey:
    """A closed loop of seeded static requests on one keep-alive connection.

    Each set-up starts a fresh server, and each server then answers an
    equal share of the timed phase, so one run samples the host at as
    many points in time as it has set-ups.
    """
    tracer, tally, expected = run.tracer, run.tally, run.expected
    notes: dict[str, object] = {"bytecode_s": warm_bytecode(run.children)}
    cache = run.dir.sub("cache")
    notes["fill_s"] = _fill_cache(run, cache)

    paths = expected.paths
    setups: list[float] = []
    peaks: list[float] = []
    loops: list[LoopResult] = []
    steal = StealMeter()
    for i in range(run.setups):
        t0 = time.perf_counter()
        with tracer.span("serve-static.start"):
            with open(run.dir.path / f"serve{i}.log", "wb") as log:
                proc = run.children.spawn(
                    [PYTHON, str(Path(__file__).with_name("serve_child.py")), str(cache)],
                    stdout=subprocess.PIPE, stderr=log,
                )
            port = int(proc.stdout.readline())
            client = KeepAliveClient(port, timeout=START_TIMEOUT_S)
            status, _, _ = client.get("/healthz")
        setups.append(time.perf_counter() - t0)
        tally.check(status == 200, f"/healthz answered {status} after start")
        bodies = _fetch_plane(tally, paths, client.get)
        client.close()
        tally.plane(bodies, expected, label=f"server {i}")
        tally.check(
            plane_fingerprint({p: sha256(b) for p, b in bodies.items()})
            == expected.plane_fingerprint,
            f"server {i}: served plane fingerprint differs from the pinned one",
        )
        loops.append(closed_loop(run, port, proc.pid, paths, bodies,
                                 run.seconds / run.setups, "serve-static.request",
                                 offset=sum(loop.requests for loop in loops)))
        peaks.append(vm_hwm_mb(proc.pid))
        run.children.stop(proc)
    result = LoopResult.merge(loops)
    notes.update(result.notes())
    return Journey(setups, result.latencies, result.seconds, median(peaks),
                   steal.share(), notes)


def _fetch_plane(tally: Tally, paths: list[str], get) -> dict[str, bytes]:
    """GET every static path once; each body must hash to its ETag."""
    bodies: dict[str, bytes] = {}
    for path in paths:
        status, etag, body = get(path)
        tally.check(status == 200 and etag == quoted(sha256(body)),
                    f"{path}: status {status} or body does not match its ETag")
        bodies[path] = body
    return bodies


def _get_once(port: int):
    """A ``get`` for the threaded engine: one connection per request."""

    def get(path: str) -> tuple[int, bytes | None, bytes]:
        status, headers, body = call(port, "GET", path)
        etag = headers.get("ETag")
        return status, etag.encode("latin-1") if etag else None, body

    return get


@dataclass
class LoopResult:
    """What one closed loop measured; :meth:`notes` gives per-request figures."""

    latencies: list[float]
    seconds: float
    requests: int
    revalidations: int
    server_cpu_s: float
    client_cpu_s: float
    hits: float
    not_modified: float
    datasets_built: float

    @classmethod
    def merge(cls, results: list["LoopResult"]) -> "LoopResult":
        """Several loops as one: every field is a sum (latencies concatenate)."""
        return cls(*(sum((getattr(r, f.name) for r in results),
                         [] if f.name == "latencies" else 0)
                     for f in fields(cls)))

    def notes(self) -> dict[str, float]:
        return {
            "requests": self.requests,
            "revalidations": self.revalidations,
            "server_cpu_us_per_req": self.server_cpu_s / self.requests * 1e6,
            "client_cpu_us_per_req": self.client_cpu_s / self.requests * 1e6,
            "artifact_hit_ratio": self.hits / self.requests,
            "not_modified": self.not_modified,
            "datasets_built": self.datasets_built,
        }


def closed_loop(run: Run, port: int, pid: int, paths: list[str],
                bodies: dict[str, bytes], seconds: float, span: str,
                offset: int = 0) -> LoopResult:
    """Seeded requests from *offset* on, one at a time, until *seconds* pass.

    Every 200 must carry the pinned body and ETag, every revalidation a
    bodiless 304.  ``/metrics`` deltas prove the loop built no dataset
    and was served entirely from the plane.
    """
    tally, expected = run.tally, run.expected
    etags = [quoted(expected.artifacts[p]) for p in paths]
    full = [bodies[p] for p in paths]
    plain = [encode_get(p) for p in paths]
    reval = [encode_get(p, if_none_match=e.decode()) for p, e in zip(paths, etags)]
    sequence = request_sequence(run.seed, len(paths))
    record = run.tracer.record if run.tracer.enabled else None

    before = openmetrics_counters(port, SERVE_COUNTERS)
    client = KeepAliveClient(port)
    latencies: list[float] = []
    sent = revalidations = 0
    server_cpu0 = cpu_seconds(pid)
    client_cpu0 = time.process_time()
    start = t1 = time.perf_counter()
    deadline = start + seconds
    length = len(sequence)
    while t1 < deadline:
        index, revalidate = sequence[(offset + sent) % length]
        t0 = time.perf_counter()
        status, etag, body = client.roundtrip(reval[index] if revalidate else plain[index])
        t1 = time.perf_counter()
        sent += 1
        if revalidate:
            revalidations += 1
            ok = status == 304 and not body and etag == etags[index]
        else:
            ok = status == 200 and etag == etags[index] and body == full[index]
        if ok:
            latencies.append(t1 - t0)
        else:
            tally.fail(f"{paths[index]}: status {status}, revalidate={revalidate}")
        if record is not None:
            record(span, t0, t1)
    elapsed = t1 - start
    client_cpu = time.process_time() - client_cpu0
    server_cpu = cpu_seconds(pid) - server_cpu0
    client.close()  # the server flushes its static counters on disconnect
    tally.attempted += sent

    after = _counters_after(port, before, "serve_artifact_hit", sent)
    hits = after["serve_artifact_hit"] - before["serve_artifact_hit"]
    built = after["scenario_dataset_built"] - before["scenario_dataset_built"]
    not_modified = (after["serve_response_not_modified"]
                    - before["serve_response_not_modified"])
    tally.check(built == 0, f"{built:.0f} datasets built during the timed phase")
    tally.check(hits == sent, f"{hits:.0f} of {sent} requests served from the plane")
    tally.check(not_modified == revalidations,
                f"{not_modified:.0f} 304s for {revalidations} revalidations")
    return LoopResult(latencies, elapsed, sent, revalidations,
                      server_cpu, client_cpu, hits, not_modified, built)


def _counters_after(port: int, before: dict[str, float], family: str,
                    expected_delta: int) -> dict[str, float]:
    """Scrape until *family* has grown by *expected_delta* (or 2 s pass).

    The asyncio engine publishes static-request counts when a connection
    closes, which the server may handle just after the next scrape.
    """
    deadline = time.monotonic() + 2.0
    while True:
        after = openmetrics_counters(port, SERVE_COUNTERS)
        if after[family] - before[family] >= expected_delta or time.monotonic() > deadline:
            return after
        time.sleep(0.02)


# -- ingest-append ---------------------------------------------------------------


def ingest_append(run: Run) -> Journey:
    """POST seeded NDT batches to a live server until each is visible.

    Each set-up starts a fresh server on its own copy of the base cache
    and its own WAL, and each server takes the run's first batch: the
    gated latency is the median of those first rounds, the same work on
    every server.  Later batches go to the last server until the rounds
    have taken ``--seconds``; they are checked and recorded, not gated.
    """
    tracer, tally, expected = run.tracer, run.tally, run.expected
    notes: dict[str, object] = {"bytecode_s": warm_bytecode(run.children)}
    base = run.dir.sub("base-cache")
    notes["fill_s"] = _fill_cache(run, base)
    base_etag = quoted(expected.report_sha256).decode()

    setups: list[float] = []
    first_s: list[float] = []
    later_s: list[float] = []
    peaks: list[float] = []
    first_planes: list[dict[str, bytes]] = []
    batches = [ndt_batch(run.seed, 0)]
    served: dict[str, bytes] = {}
    timed = 0.0
    steal = StealMeter()
    for i in range(run.setups):
        port = free_port()
        command = [PYTHON, "-m", "repro", "--cache-dir",
                   str(_linked_copy(run, base, f"cache{i}")), "serve",
                   "--ingest-dir", str(run.dir.sub(f"wal{i}")), "--port", str(port)]
        t0 = time.perf_counter()
        with tracer.span("ingest-append.start"):
            with open(run.dir.path / f"serve{i}.log", "wb") as log:
                proc = run.children.spawn(command, stderr=log)
            wait_healthy(proc, port)
            status, headers, body = call(port, "GET", "/v1/report")
        setups.append(time.perf_counter() - t0)
        etag = headers.get("ETag", "")
        tally.check(
            status == 200 and etag == base_etag and sha256(body) == expected.report_sha256,
            f"server {i}: base /v1/report answered {status} with ETag {etag}",
        )
        # Every server takes the first batch; the last one then takes later
        # batches until the rounds have run for --seconds.
        index = 0
        while True:
            t0 = time.perf_counter()
            visible, etag, plane = _ingest_round(run, port, index, *batches[index], etag)
            timed += time.perf_counter() - t0
            if visible is None:
                break
            served = plane
            if index == 0:
                first_s.append(visible)
                first_planes.append(plane)
                # Old and new surface together, after exactly one apply.
                peaks.append(vm_hwm_mb(proc.pid))
            else:
                later_s.append(visible)
            if i < run.setups - 1 or timed >= run.seconds:
                break
            index += 1
            if index == len(batches):
                batches.append(ndt_batch(run.seed, index))
        run.children.stop(proc)
    if not first_s:
        raise RuntimeError("no first ingest round became visible")

    bodies = [body for _, body in batches]
    with tracer.span("ingest-append.rederive"):
        first = rederive(run, base, bodies[:1], "first")
        for i, plane in enumerate(first_planes):
            _check_rederived(tally, plane, first, f"server {i} after the first batch")
        if later_s:
            _check_rederived(tally, served, rederive(run, base, bodies, "last"),
                             "the last server after its last batch")
    notes.update({"rounds": len(first_s) + len(later_s), "later_visible_s": later_s,
                  "batches": bodies, "served": served})
    return Journey(setups, first_s, timed, median(peaks), steal.share(), notes,
                   completed=len(first_s) + len(later_s))


def _linked_copy(run: Run, cache: Path, name: str) -> Path:
    """A private dataset cache holding *cache*'s entries as hard links.

    Entries are replaced, never rewritten in place, so what one copy
    stores (an ingest shard) no other copy sees.
    """
    copy = run.dir.sub(name)
    for entry in cache.iterdir():
        os.link(entry, copy / entry.name)
    return copy


def _ingest_round(run: Run, port: int, index: int, country: str, body: bytes,
                  previous: str) -> tuple[float | None, str, dict[str, bytes]]:
    """POST batch *index*, wait until ``/v1/report`` changes, check the plane.

    Returns the seconds from the POST to the first changed report (None
    on timeout), the new report ETag and the plane served after it.
    """
    tally, expected = run.tally, run.expected
    with run.tracer.span("ingest-append.round"):
        t0 = time.perf_counter()
        status, _, receipt_body = call(port, "POST", "/v1/ingest/ndt", body)
        receipt = json.loads(receipt_body)["data"] if status == 200 else {}
        tally.check(
            status == 200 and not receipt.get("duplicate")
            and receipt.get("partitions") == [f"2023-07.{country}"],
            f"batch {index}: POST answered {status}: {receipt_body[:200]!r}",
        )
        visible, etag = _wait_visible(port, receipt.get("seq", 1 << 62), previous, t0)
    if visible is None:
        tally.fail(f"batch {index}: /v1/report unchanged after {VISIBLE_TIMEOUT_S}s")
        return None, previous, {}
    with run.tracer.span("ingest-append.check"):
        plane = _fetch_plane(tally, expected.paths, _get_once(port))
        tally.plane(plane, expected, changed=expected.ingest_changes,
                    label=f"after batch {index}")
    return visible - t0, etag, plane


def _check_rederived(tally: Tally, plane: dict[str, bytes], derived: dict[str, str],
                     label: str) -> None:
    for path, sha in derived.items():
        tally.check(sha256(plane.get(path, b"")) == sha,
                    f"{label}: served {path} differs from the one re-derived "
                    f"from the same batches")


def rederive(run: Run, base: Path, batches: list[bytes], tag: str) -> dict[str, str]:
    """The artifacts the batches change, re-derived in this process.

    Journals the batches in a scratch ``IngestService`` and builds the
    world under its overlay, as ``apply_ingest`` does, over a copy of
    the base cache (so the dirty shards are built here, not loaded from
    a server's entries).  Then renders only the expected changes through
    their public handler and ``envelope_bytes``: about one report
    render, where a full seal would cost the whole plane.  Returns
    ``path -> sha256``.
    """
    from repro.core import Scenario
    from repro.exec import DatasetCache
    from repro.ingest.service import IngestService
    from repro.serve import handlers
    from repro.serve.artifacts import path_for, static_surface
    from repro.serve.handlers import ServeContext
    from repro.serve.pool import ScenarioPool
    from repro.serve.router import envelope_bytes

    service = IngestService(run.dir.sub(f"rederive-{tag}-journal"))
    for body in batches:
        service.submit("ndt", body.decode("utf-8").splitlines(), {})
    overlay = service.overlay()
    cache = DatasetCache(_linked_copy(run, base, f"rederive-{tag}-cache"))
    scenario = Scenario(cache=cache, strict=False, overlay=overlay)
    scenario.build_all()
    pool = ScenarioPool(cache=cache, strict=False)
    pool.seed(scenario, overlay=overlay)
    context = ServeContext(pool=pool, params={"overlay": overlay})
    derived = {}
    for endpoint, params in static_surface():
        path = path_for(endpoint, params)
        if path in run.expected.ingest_changes:
            handler = getattr(handlers, f"handle_{endpoint}")
            derived[path] = sha256(envelope_bytes(handler(context, **params)))
    run.tally.check(set(derived) == set(run.expected.ingest_changes),
                    f"re-derived {sorted(derived)}, expected changes "
                    f"{list(run.expected.ingest_changes)}")
    return derived


def wait_healthy(proc: subprocess.Popen, port: int) -> None:
    deadline = time.monotonic() + START_TIMEOUT_S
    while True:
        try:
            if call(port, "GET", "/healthz", timeout=START_TIMEOUT_S)[0] == 200:
                return
        except OSError:
            pass
        if proc.poll() is not None:
            raise RuntimeError(f"server exited {proc.returncode} during start")
        if time.monotonic() > deadline:
            raise RuntimeError("server not healthy in time")
        time.sleep(0.01)


def _wait_visible(port: int, seq: int, previous: str, t0: float
                  ) -> tuple[float | None, str]:
    """Poll on a fixed grid until the batch is applied and served.

    Returns the time the first changed ``/v1/report`` arrived (None on
    timeout) and its ETag; the plane fetch after the round checks the
    body.  ``applied_seq`` is checkpointed just before the surface swap,
    so the report is re-checked until it changes.
    """
    tick = t0
    while True:
        tick += POLL_INTERVAL_S
        time.sleep(max(0.0, tick - time.perf_counter()))
        health = get_data(port, "/healthz")
        if health.get("ingest", {}).get("applied_seq", 0) >= seq:
            status, headers, _ = call(port, "GET", "/v1/report",
                                      headers={"If-None-Match": previous})
            etag = headers.get("ETag", "")
            if status == 200 and etag != previous:
                return time.perf_counter(), etag
        if time.perf_counter() - t0 > VISIBLE_TIMEOUT_S:
            return None, previous


WORKLOADS = {
    "report-warm": report_warm,
    "serve-static": serve_static,
    "ingest-append": ingest_append,
}
