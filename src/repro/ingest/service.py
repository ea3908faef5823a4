"""The durable ingestion front-end: journal-before-ack, bounded backlog.

:class:`IngestService` sits between the transport (``POST
/v1/ingest/<format>`` on ``repro serve --ingest-dir``) and the journal.
A submission is

1. **admitted** — rejected with :class:`IngestBacklogError` (HTTP 429 +
   Retry-After) when the un-applied backlog is at the bound, so a slow
   rebuild pushes back on producers instead of buffering unboundedly;
2. **validated** — run through the format adapter's strict/lenient
   parser with quarantine; a batch with no salvageable records raises
   :class:`IngestValidationError` (HTTP 422);
3. **journaled** — appended to the WAL and ``fsync``'d; only then is
   the receipt issued.  Delivery is therefore at-least-once: an acked
   batch survives any crash, and the content-hash idempotency key makes
   redelivery a no-op.

Application (rebuilding dirty partitions and refreshing the serving
surface) is decoupled from submission: :func:`apply_ingest` folds the
journal into an overlay scenario, rebuilds, and checkpoints
``applied_seq`` so startup recovery knows where acked-but-unapplied
work begins.

Crash-point injection: when ``REPRO_INGEST_CRASH`` names one of
:data:`CRASH_POINTS`, :func:`maybe_crash` SIGKILLs the process at that
point — the hooks ``tests/serve/test_crash_recovery.py`` and CI arm on
a real ``repro serve`` to prove its restart converges (see
``docs/RELIABILITY.md``).
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.ingest.formats import FORMATS, IngestFormatError
from repro.ingest.overlay import (
    IngestOverlay,
    build_overlay,
    dataset_fingerprint,
)
from repro.ingest.wal import ReplayReport, WriteAheadLog
from repro.obs import get_logger, get_registry, timed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scenario import Scenario
    from repro.exec.cache import DatasetCache
    from repro.serve.artifacts import ArtifactStore

_LOG = get_logger("repro.ingest.service")

#: Environment variable naming the injected crash point, if any.
ENV_CRASH = "REPRO_INGEST_CRASH"

#: Valid injection points, in pipeline order: after the journal fsync
#: (acked, nothing applied), after the dataset rebuild (store not yet
#: built), and after the store build (checkpoint/swap not yet done).
CRASH_POINTS = ("post-ack", "mid-rebuild", "mid-swap")

#: Default bound on acked-but-unapplied batches.
DEFAULT_MAX_BACKLOG = 64

#: Transports translate a backlog rejection into 429 + this many seconds.
RETRY_AFTER_SECONDS = 5


def maybe_crash(point: str) -> None:
    """SIGKILL the process if the injected crash point is *point*.

    SIGKILL, not an exception: a crash test must exercise real torn
    state (no ``finally`` blocks, no atexit, no flushing) as an OOM kill
    leaves it.  The page cache outlives the process, so this is not a
    power loss.
    """
    if os.environ.get(ENV_CRASH) == point:
        os.kill(os.getpid(), signal.SIGKILL)


class IngestBacklogError(RuntimeError):
    """The un-applied backlog is at its bound; retry after a rebuild."""

    def __init__(self, backlog: int, limit: int):
        self.backlog = backlog
        self.limit = limit
        self.retry_after = RETRY_AFTER_SECONDS
        super().__init__(
            f"ingest backlog at bound ({backlog}/{limit} batches un-applied)"
        )


class IngestValidationError(ValueError):
    """The submitted batch contained no applicable records."""


@dataclass(frozen=True, slots=True)
class Receipt:
    """The at-least-once acknowledgement of one journaled batch."""

    seq: int
    key: str
    format: str
    duplicate: bool
    accepted: int
    quarantined: int
    partitions: tuple[str, ...]
    backlog: int

    def to_dict(self) -> dict:
        return {
            "schema": "repro.ingest-receipt/1",
            "seq": self.seq,
            "key": self.key,
            "format": self.format,
            "duplicate": self.duplicate,
            "accepted": self.accepted,
            "quarantined": self.quarantined,
            "partitions": list(self.partitions),
            "backlog": self.backlog,
        }


@dataclass(frozen=True, slots=True)
class ApplyResult:
    """What one journal application produced."""

    applied_seq: int
    overlay: IngestOverlay
    dataset_fingerprints: dict[str, str]
    artifact_fingerprint: str
    report_sha256: str
    store: "ArtifactStore" = field(repr=False)
    scenario: object = field(repr=False)
    context: object = field(repr=False)

    def fingerprints(self) -> dict[str, object]:
        return {
            "datasets": dict(self.dataset_fingerprints),
            "artifacts": self.artifact_fingerprint,
            "report_sha256": self.report_sha256,
        }


class IngestService:
    """Durable append acceptance over one write-ahead journal.

    Construction *is* recovery: the journal directory is scanned, torn
    final records truncated, committed records replayed into the dedupe
    index, and the last checkpoint read — so a process that crashed at
    any point resumes with every acked batch intact and knows exactly
    which suffix still needs applying.
    """

    def __init__(
        self,
        wal_dir: Path | str,
        max_backlog: int = DEFAULT_MAX_BACKLOG,
        strict: bool = False,
        fsync: bool = True,
    ) -> None:
        self.wal = WriteAheadLog(wal_dir, fsync=fsync)
        self.max_backlog = max_backlog
        self.strict = strict
        self._lock = threading.Lock()
        records, report = self.wal.replay()
        self.replay_report: ReplayReport = report
        checkpoint = self.wal.read_checkpoint() or {}
        self.applied_seq = int(checkpoint.get("applied_seq", 0))
        self.applied_fingerprints = checkpoint.get("fingerprints") or {}
        if records:
            _LOG.info(
                "ingest.recovered",
                records=report.records,
                torn=report.torn,
                applied_seq=self.applied_seq,
                pending=self.backlog(),
            )
        registry = get_registry()
        registry.gauge("ingest.backlog").set(self.backlog())

    # -- state ---------------------------------------------------------------

    def backlog(self) -> int:
        """Acked batches not yet covered by a committed checkpoint."""
        return max(0, self.wal.last_seq - self.applied_seq)

    def overlay(self) -> IngestOverlay:
        """The whole journal folded into a partition overlay."""
        records, _report = self.wal.replay()
        return build_overlay(records)

    def status(self) -> dict:
        """The ``/healthz`` ingest section."""
        return {
            "journaled": self.wal.last_seq,
            "applied_seq": self.applied_seq,
            "backlog": self.backlog(),
            "max_backlog": self.max_backlog,
            "torn_recovered": self.replay_report.torn,
        }

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        format_name: str,
        lines: Iterable[str],
        meta: dict[str, str] | None = None,
    ) -> Receipt:
        """Validate, journal, fsync, and ack one batch.

        Raises:
            KeyError: unknown format (transports map this to 404).
            IngestBacklogError: the backlog bound is hit (429).
            IngestValidationError: nothing in the batch is applicable,
                or (via the adapters) the batch is structurally invalid
                (422).  The error-budget and strict-mode parser errors
                propagate with the same mapping.
        """
        from repro.ingest.wal import idempotency_key

        adapter = FORMATS[format_name]
        meta = dict(meta or {})
        registry = get_registry()
        with self._lock:
            try:
                canonical, quarantine = adapter.canonicalise(
                    lines, meta, self.strict
                )
            except IngestFormatError:
                registry.counter("ingest.rejected.invalid").inc()
                raise
            except ValueError as exc:
                registry.counter("ingest.rejected.invalid").inc()
                raise IngestValidationError(str(exc)) from exc
            if not canonical:
                registry.counter("ingest.rejected.invalid").inc()
                raise IngestValidationError(
                    "batch contains no applicable records"
                )
            # Admission control applies to NEW batches only: a retry of
            # an already-journaled batch is re-acked even at full
            # backlog — the client lost the ack, not the data, and a
            # 429 here would defeat at-least-once delivery.
            already = self.wal.seq_for(idempotency_key(format_name, canonical))
            backlog = self.backlog()
            if already is None and backlog >= self.max_backlog:
                registry.counter("ingest.rejected.backlog").inc()
                raise IngestBacklogError(backlog, self.max_backlog)
            partitions = adapter.partition(canonical, meta)
            result = self.wal.append(format_name, canonical, meta)
            registry.counter("ingest.accepted").inc()
            registry.gauge("ingest.backlog").set(self.backlog())
        # The batch is durable and acked from here on: a crash now loses
        # nothing — startup replay re-applies it.
        maybe_crash("post-ack")
        return Receipt(
            seq=result.seq,
            key=result.key,
            format=format_name,
            duplicate=result.duplicate,
            accepted=len(canonical),
            quarantined=len(quarantine) if quarantine is not None else 0,
            partitions=tuple(sorted(key.shard_id for key in partitions)),
            backlog=self.backlog(),
        )

    # -- application ---------------------------------------------------------

    def mark_applied(self, applied_seq: int, fingerprints: dict) -> None:
        """Commit the checkpoint: everything through *applied_seq* applied."""
        self.wal.write_checkpoint(applied_seq, fingerprints=fingerprints)
        self.applied_seq = applied_seq
        self.applied_fingerprints = fingerprints
        registry = get_registry()
        registry.counter("ingest.applied").inc()
        registry.gauge("ingest.backlog").set(self.backlog())


def apply_ingest(
    service: IngestService,
    cache: "DatasetCache | None",
    params: dict[str, object],
    jobs: int = 1,
    strict: bool = True,
    previous: "Scenario | None" = None,
) -> ApplyResult:
    """Rebuild the world under the service's overlay and checkpoint it.

    Only dirty partitions pay a rebuild: base datasets come from the
    cache (or the generators) untouched, overlay shards load from their
    own cache entries when their content digest matches, and the sealed
    :class:`~repro.serve.artifacts.ArtifactStore` is rebuilt from the
    merged world.  The checkpoint (seq + fingerprints) commits last —
    a crash anywhere before it re-applies idempotently on restart.

    With *previous* (the world being served), the new world first
    inherits from it (:meth:`~repro.core.scenario.Scenario.inherit`):
    every dataset the journal did not change and every memoized value
    that read only those, so the apply computes only what the append
    touched.  The result is byte-identical either way.  Timed into
    ``ingest.apply``.

    *jobs* accepts only 1 (the apply is serial).  It stays while the
    benchmark harness (``perfbench/``) still passes ``jobs=1``; a later
    change to the benchmark drops that argument, and this keyword goes
    with it.

    Raises:
        ValueError: *jobs* is not 1.
    """
    if jobs != 1:
        raise ValueError(f"the apply is serial: jobs must be 1, got {jobs!r}")
    return timed(
        "ingest.apply",
        lambda: _apply(service, cache, params, strict, previous),
    )


def _apply(
    service: IngestService,
    cache: "DatasetCache | None",
    params: dict[str, object],
    strict: bool,
    previous: "Scenario | None",
) -> ApplyResult:
    from repro.core.scenario import Scenario
    from repro.serve.artifacts import build_artifact_store
    from repro.serve.handlers import ServeContext
    from repro.serve.pool import ScenarioPool

    target_seq = service.wal.last_seq
    overlay = service.overlay()
    scenario = Scenario(
        cache=cache,
        strict=strict,
        overlay=overlay if overlay else None,
        **params,  # type: ignore[arg-type]
    )
    if previous is not None:
        scenario.inherit(previous)
    scenario.build_all()
    # Datasets rebuilt (dirty shards merged); the serving surface is not.
    maybe_crash("mid-rebuild")

    pool = ScenarioPool(cache=cache, strict=strict)
    pool_params: dict[str, object] = dict(params)
    if overlay:
        pool_params["overlay"] = overlay
    pool.seed(scenario, **pool_params)
    context = ServeContext(pool=pool, params=pool_params)
    store = build_artifact_store(context)
    # Store sealed; neither the checkpoint nor any swap has happened.
    maybe_crash("mid-swap")

    fingerprints = {
        name: dataset_fingerprint(scenario.materialise(name))
        for name in overlay.datasets()
    }
    report = store.get("/v1/report")
    result = ApplyResult(
        applied_seq=target_seq,
        overlay=overlay,
        dataset_fingerprints=fingerprints,
        artifact_fingerprint=store.fingerprint(),
        report_sha256=report.sha256 if report is not None else "",
        store=store,
        scenario=scenario,
        context=context,
    )
    service.mark_applied(target_seq, result.fingerprints())
    return result
