"""The traced pass: each layer timed from outside, around its public call.

:func:`walk` replays the three journeys in this process, one layer at a
time, with a span around every call into a module's public functions:
cold builds and warm loads through ``Scenario``, each exhibit through
``run_exhibit``, the report, scorecards and narrative, the artifact seal
and its endpoint classes, the asyncio wire compile and a short served
load, and the ingest path from ``canonicalise`` to ``apply_ingest``.
The program is not instrumented; counters come from its own registry
and ``/metrics`` as deltas around each call.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
from pathlib import Path

from checks import sha256
from client import call
from harness import free_port, median
from metrics import DATASETS, EXHIBITS
from workloads import PYTHON, START_TIMEOUT_S, Run, closed_loop, wait_healthy

#: Seconds of served load behind the per-request CPU figures.
AIO_PROBE_SECONDS = 2.0

#: The public endpoint handlers the seal renders through, each with the
#: class its render time is reported in.
HANDLER_CLASS = {
    "handle_exhibits": "catalog",
    "handle_report": "report",
    "handle_narrative": "narrative",
    "handle_exhibit": "exhibit",
    "handle_scorecard": "scorecard",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)


def walk(run: Run, batches: list[bytes]) -> tuple[dict[str, float], dict[str, str]]:
    """Every per-layer metric, plus the plane ``apply_ingest`` derived
    from *batches* (``path -> sha256``) for the ingest replay check."""
    from repro.core import exhibit_ids
    from repro.core.scenario import dataset_names

    if tuple(dataset_names()) != DATASETS or tuple(exhibit_ids()) != EXHIBITS:
        raise RuntimeError("program datasets or exhibits differ from metrics.py")
    metrics: dict[str, float] = {}
    metrics["cli.import_s"] = _cli_import(run)
    cache = run.dir.sub("walk-cache")
    scenario = _datasets(run, cache, metrics)
    _analysis(run, scenario, cache, metrics)
    store, context = _seal(run, cache, metrics)
    _aio(run, store, context, metrics)
    derived = _ingest(run, cache, batches, metrics)
    return metrics, derived


def _cli_import(run: Run) -> float:
    """``import repro.cli`` in a fresh interpreter, bytecode cached."""
    out = run.dir.path / "import.txt"
    samples = []
    for _ in range(3):
        with run.tracer.span("cli.import"):
            finished = run.children.run([PYTHON, "-c", IMPORT_PROBE], 60.0, out)
        if finished.returncode != 0:
            raise RuntimeError("import repro.cli failed")
        samples.append(float(out.read_text()))
    return median(samples)


def _datasets(run: Run, cache_dir: Path, metrics: dict[str, float]):
    """Cold builds into an empty cache, then warm loads from it."""
    from repro.core import Scenario
    from repro.exec import DatasetCache
    from repro.obs import get_registry

    span, registry = run.tracer.span, get_registry()
    cache = DatasetCache(cache_dir)
    cold = Scenario(cache=cache, strict=False)
    with span("build"):
        for name in DATASETS:
            with span(f"build.{name}"):
                cold.materialise(name)
    counters = ("scenario.cache.hit", "scenario.cache.miss", "scenario.cache.store")
    before = [registry.counter(name).value for name in counters]
    warm = Scenario(cache=cache, strict=False)
    with span("load"):
        for name in DATASETS:
            with span(f"load.{name}"):
                warm.materialise(name)
    after = [registry.counter(name).value for name in counters]
    for name in DATASETS:
        metrics[f"build.{name}_ms"] = run.tracer.seconds(f"build.{name}") * 1e3
        metrics[f"load.{name}_ms"] = run.tracer.seconds(f"load.{name}") * 1e3
    metrics["build_s"] = run.tracer.seconds("build")
    metrics["load_s"] = run.tracer.seconds("load")
    metrics["cache.hits"], metrics["cache.misses"], metrics["cache.stores"] = (
        a - b for a, b in zip(after, before)
    )
    metrics["cache.bytes"] = sum(p.stat().st_size for p in cache_dir.iterdir())
    return warm


def _analysis(run: Run, scenario, cache_dir: Path, metrics: dict[str, float]) -> None:
    """Exhibits, the report, scorecards and narrative on warm scenarios."""
    from repro.core import Scenario, run_exhibit
    from repro.core.narrative import all_findings
    from repro.core.report import render_report
    from repro.core.scorecard import build_scorecard
    from repro.exec import DatasetCache
    from repro.geo.countries import LACNIC_CODES

    span, tracer = run.tracer.span, run.tracer
    for eid in EXHIBITS:
        with span(f"exhibit.{eid}"):
            run_exhibit(scenario, eid)
        metrics[f"exhibit.{eid}_ms"] = tracer.seconds(f"exhibit.{eid}") * 1e3

    fresh = Scenario(cache=DatasetCache(cache_dir), strict=False)
    fresh.build_all()
    with span("render_report"):
        text = render_report(fresh)
    metrics["render_report_s"] = tracer.seconds("render_report")
    run.tally.check(
        sha256((text + "\n").encode("utf-8")) == run.expected.report_stdout_sha256,
        "render_report differs from the pinned report",
    )

    with span("scorecards"):
        for code in LACNIC_CODES:
            with span("scorecard"):
                build_scorecard(scenario, code)
    metrics["scorecard.median_ms"] = median(tracer.durations("scorecard")) * 1e3
    metrics["scorecards_s"] = tracer.seconds("scorecards")
    with span("narrative"):
        all_findings(scenario)
    metrics["narrative_ms"] = tracer.seconds("narrative") * 1e3


def _context(cache_dir: Path):
    from repro.exec import DatasetCache
    from repro.serve.handlers import ServeContext
    from repro.serve.pool import ScenarioPool

    return ServeContext(pool=ScenarioPool(cache=DatasetCache(cache_dir), strict=False))


def _seal(run: Run, cache_dir: Path, metrics: dict[str, float]):
    """The seal, with each endpoint class's handler + envelope timed inside it."""
    from repro.obs import get_registry
    from repro.serve.artifacts import build_artifact_store

    span, tracer, registry = run.tracer.span, run.tracer, get_registry()
    context = _context(cache_dir)
    runs_before = registry.counter("exhibit.runs").value
    with RenderSpans(tracer, "seal") as renders, span("seal"):
        store = build_artifact_store(context, workers=1)
    metrics["seal_s"] = tracer.seconds("seal")
    for name in set(HANDLER_CLASS.values()):
        metrics[f"seal.{name}_s"] = renders.seconds(name)
    metrics["seal.exhibit_runs"] = registry.counter("exhibit.runs").value - runs_before
    metrics["artifacts.count"] = len(store)
    metrics["artifacts.bytes"] = store.total_bytes
    run.tally.check(store.fingerprint() == run.expected.plane_fingerprint,
                    "sealed plane fingerprint differs from the pinned one")
    return store, context


def _aio(run: Run, store, context, metrics: dict[str, float]) -> None:
    """Wire compile over the sealed store, then a short served load.

    The server is forked from this process after the seal, so the load
    pays no second seal; CPU per request comes from ``/proc``.
    """
    from repro.serve.aio import create_aio_server, run_aio

    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    sock.listen(128)
    port = sock.getsockname()[1]
    with run.tracer.span("aio.wire_compile"):
        server = create_aio_server(artifacts=store, context=context, sock=sock)
    metrics["aio.wire_compile_ms"] = run.tracer.seconds("aio.wire_compile") * 1e3
    pid = os.fork()
    if pid == 0:  # the server child: serve until SIGTERM, never return
        status = 1
        try:
            os.sched_setaffinity(0, run.children.cpus)
            os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
            run_aio(server)
            status = 0
        finally:
            os._exit(status)
    sock.close()
    try:
        paths = run.expected.paths
        bodies = {path: store.get(path).body for path in paths}
        result = closed_loop(run, port, pid, paths, bodies, AIO_PROBE_SECONDS,
                             "aio.request")
    finally:
        os.kill(pid, signal.SIGTERM)
        _, status = os.waitpid(pid, 0)
    run.tally.check(os.waitstatus_to_exitcode(status) == 0,
                    f"aio probe server exited with status {status}")
    notes = result.notes()
    for name in ("server_cpu_us_per_req", "client_cpu_us_per_req",
                 "artifact_hit_ratio", "not_modified", "datasets_built"):
        metrics[f"aio.{name}"] = float(notes[name])


def _ingest(run: Run, cache_dir: Path, batches: list[bytes],
            metrics: dict[str, float]) -> dict[str, str]:
    """The ingest path, layer by layer, over scratch journals."""
    from repro.core import Scenario
    from repro.exec import DatasetCache
    from repro.ingest.formats import FORMATS
    from repro.ingest.service import IngestService, apply_ingest
    from repro.ingest.wal import WriteAheadLog
    from repro.obs import get_registry

    span, tracer, registry = run.tracer.span, run.tracer, get_registry()
    batch_lines = [body.decode("utf-8").splitlines() for body in batches]
    canonical = []
    for lines in batch_lines:
        with span("ingest.canonicalise"):
            rows, _ = FORMATS["ndt"].canonicalise(lines, {}, False)
        canonical.append(rows)
    metrics["ingest.canonicalise_ms"] = median(tracer.durations("ingest.canonicalise")) * 1e3

    wal_dir = run.dir.sub("walk-wal")
    wal = WriteAheadLog(wal_dir, fsync=True)
    try:
        for rows in canonical:
            with span("wal.append"):
                wal.append("ndt", rows, {})
    finally:
        wal.close()
    metrics["wal.append_ms"] = median(tracer.durations("wal.append")) * 1e3
    journal_bytes = sum(p.stat().st_size for p in wal.segments())
    metrics["wal.bytes_per_user_byte"] = journal_bytes / sum(len(b) for b in batches)

    service = IngestService(run.dir.sub("walk-journal"))
    for lines in batch_lines:
        service.submit("ndt", lines, {})
    with span("ingest.overlay"):
        overlay = service.overlay()
    metrics["ingest.overlay_ms"] = tracer.seconds("ingest.overlay") * 1e3

    # The apply stores the dirty shards; the timed rebuild runs on a copy
    # taken before it, so it builds them too instead of loading them.
    rebuild_dir = run.dir.path / "walk-rebuild-cache"
    shutil.copytree(cache_dir, rebuild_dir)
    counters = ("ingest.partition.built", "ingest.partition.hit")
    before = [registry.counter(name).value for name in counters]
    seal_before = registry.timer("serve.artifacts.build").sum
    with RenderSpans(tracer, "ingest.render") as renders, span("ingest.apply"):
        result = apply_ingest(service, DatasetCache(cache_dir), {}, jobs=1,
                              strict=False)
    after = [registry.counter(name).value for name in counters]
    metrics["ingest.apply_s"] = tracer.seconds("ingest.apply")
    metrics["ingest.seal_s"] = registry.timer("serve.artifacts.build").sum - seal_before
    metrics["ingest.partitions_built"], metrics["ingest.partitions_hit"] = (
        a - b for a, b in zip(after, before)
    )
    derived = {artifact.path: artifact.sha256 for artifact in result.store}
    base = run.expected.artifacts
    changed = sorted(p for p, sha in derived.items() if base.get(p) != sha)
    metrics["ingest.artifacts_changed"] = len(changed)
    metrics["ingest.artifacts_rendered"] = renders.count
    run.tally.check(changed == sorted(run.expected.ingest_changes),
                    f"apply_ingest changed {changed}")

    built_before = registry.counter("ingest.partition.built").value
    with span("ingest.rebuild"):
        Scenario(cache=DatasetCache(rebuild_dir), strict=False,
                 overlay=overlay).build_all()
    metrics["ingest.rebuild_s"] = tracer.seconds("ingest.rebuild")
    rebuilt = registry.counter("ingest.partition.built").value - built_before
    run.tally.check(rebuilt == metrics["ingest.partitions_built"],
                    f"the timed rebuild built {rebuilt:.0f} partitions, the apply "
                    f"{metrics['ingest.partitions_built']:.0f}")
    metrics["ingest.ack_ms"] = _ack(run, cache_dir, batches[0])
    return derived


class RenderSpans:
    """Time every artifact render while active, handler then envelope.

    ``build_artifact_store`` looks up each handler on
    ``repro.serve.handlers`` and ``envelope_bytes`` on
    ``repro.serve.artifacts`` when it seals, so wrapping those module
    attributes puts a ``<prefix>.<class>`` span around both halves of
    every render.  :attr:`count` is the number of handler calls.  The
    originals are restored on exit.
    """

    def __init__(self, tracer, prefix: str) -> None:
        from repro.serve import artifacts, handlers

        self.tracer = tracer
        self.prefix = prefix
        self.count = 0
        self._class = ""
        self._saved = [(handlers, name, getattr(handlers, name)) for name in HANDLER_CLASS]
        self._saved.append((artifacts, "envelope_bytes", artifacts.envelope_bytes))

    def __enter__(self) -> "RenderSpans":
        for module, name, original in self._saved:
            setattr(module, name, self._wrap(name, original))
        return self

    def __exit__(self, *exc: object) -> None:
        for module, name, original in self._saved:
            setattr(module, name, original)

    def seconds(self, render_class: str) -> float:
        return sum(self.tracer.durations(f"{self.prefix}.{render_class}"))

    def _wrap(self, name: str, original):
        def spanned(*args, **kwargs):
            if name in HANDLER_CLASS:
                self.count += 1
                self._class = HANDLER_CLASS[name]
            # An envelope call belongs to the handler call before it.
            with self.tracer.span(f"{self.prefix}.{self._class}"):
                return original(*args, **kwargs)

        return spanned


def _ack(run: Run, cache_dir: Path, body: bytes) -> float:
    """POST -> receipt against a live ``repro serve --ingest-dir``."""
    port = free_port()
    command = [PYTHON, "-m", "repro", "--cache-dir", str(cache_dir), "serve",
               "--ingest-dir", str(run.dir.sub("walk-ack-wal")), "--port", str(port)]
    proc = run.children.spawn(command)
    try:
        wait_healthy(proc, port)
        with run.tracer.span("ingest.ack"):
            status, _, receipt = call(port, "POST", "/v1/ingest/ndt", body,
                                      timeout=START_TIMEOUT_S)
    finally:
        run.children.stop(proc)
    run.tally.check(status == 200, f"ack probe POST answered {status}: {receipt[:200]!r}")
    return run.tracer.seconds("ingest.ack") * 1e3

