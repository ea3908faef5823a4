"""The serving side of durable ingestion: accept, apply, hot-swap.

:class:`ServeIngestor` glues the transport-agnostic
:class:`~repro.ingest.service.IngestService` to a live
:class:`~repro.serve.aio.AioServer`:

* ``submit`` journals the batch (the caller's 2xx receipt) and nudges
  the single background apply thread;
* the apply thread folds the whole journal into an overlay, rebuilds
  only the dirty partitions plus the sealed artifact store, and
  atomically swaps the server's
  :class:`~repro.serve.server.ServingSurface` — the old generation keeps
  serving until the new fingerprint is ready, and the checkpoint commits
  only after the rebuild succeeded;
* an apply failure keeps the old surface and the journal intact
  (counted in ``ingest.apply.errors``): the batches stay acked and the
  next apply — or startup recovery — retries them.

Each apply starts its new world from the one the current surface
serves (``apply_ingest(previous=...)``), so it recomputes only what the
append touched.  Startup recovery runs before the server has built
anything and inherits nothing.  After each swap the
``ingest.freshness_lag`` gauge holds the seconds from the ack of the
oldest batch the swap made visible to the swap itself.

One apply covers every batch journaled before it started (folding is
per-journal, not per-batch), so a burst of submissions coalesces into a
single rebuild.

:func:`enable_ingest` wires one up on a server and recovers its journal
before the server starts serving.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.ingest.service import (
    DEFAULT_MAX_BACKLOG,
    ApplyResult,
    IngestService,
    Receipt,
    apply_ingest,
)
from repro.obs import get_logger, get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.cache import DatasetCache
    from repro.serve.aio import AioServer

_LOG = get_logger("repro.serve.ingestor")


class ServeIngestor:
    """Background journal application and surface hot-swap for one server."""

    def __init__(
        self,
        server: "AioServer",
        service: IngestService,
        cache: "DatasetCache | None" = None,
        strict: bool = False,
    ) -> None:
        self.server = server
        self.service = service
        self.cache = cache
        self.strict = strict
        self._apply_lock = threading.Lock()
        #: Guards ``_wakeup`` and ``_thread`` together: whether the apply
        #: thread exits and whether a submit starts one are decided
        #: under it, so a wakeup is never set with no thread to see it.
        self._state_lock = threading.Lock()
        self._wakeup = threading.Event()
        self._thread: threading.Thread | None = None
        #: seq -> monotonic ack time of batches acked here and not yet
        #: visible; guarded by ``_acks_lock`` with ``_visible_seq``.
        self._acks: dict[int, float] = {}
        self._visible_seq = 0
        self._acks_lock = threading.Lock()

    # -- the transport-facing API (handle_ingest calls these) ----------------

    def status(self) -> dict:
        """The ``/healthz`` ingest section."""
        return self.service.status()

    def submit(
        self,
        format_name: str,
        lines: Iterable[str],
        meta: dict[str, str] | None = None,
    ) -> Receipt:
        """Journal one batch and schedule a background apply."""
        receipt = self.service.submit(format_name, lines, meta)
        acked = time.monotonic()
        with self._acks_lock:
            if not receipt.duplicate and receipt.seq > self._visible_seq:
                self._acks[receipt.seq] = acked
        self._schedule_apply()
        return receipt

    # -- application ---------------------------------------------------------

    def apply_now(self, force: bool = False) -> ApplyResult | None:
        """Apply the journal synchronously; None when nothing is pending.

        Serialised with the background thread: concurrent calls fold
        into one rebuild because the journal is re-read under the lock.
        *force* rebuilds even with an empty backlog — startup uses it to
        swap in the already-checkpointed journal the fresh base surface
        does not carry.
        """
        with self._apply_lock:
            if self.service.backlog() == 0 and not force:
                return None
            old = self.server.surface
            base_params = {
                key: value
                for key, value in old.context.params.items()
                if key != "overlay"
            }
            result = apply_ingest(
                self.service,
                self.cache,
                base_params,
                strict=self.strict,
                # Before start() the pool is cold: recovery inherits nothing.
                previous=old.context.pool.peek(**old.context.params),
            )
            context = result.context
            context.ingest = self
            self.server.swap_surface(context, result.store)
            self._record_freshness(result.applied_seq)
            return result

    def _record_freshness(self, applied_seq: int) -> None:
        """Set ``ingest.freshness_lag`` for the batches a swap made visible.

        The lag runs from the oldest newly visible batch's ack to now.
        Batches acked by an earlier process have no ack time and are
        skipped; a swap that shows no batch acked here leaves the gauge.
        """
        swapped = time.monotonic()
        with self._acks_lock:
            self._visible_seq = max(self._visible_seq, applied_seq)
            covered = [seq for seq in self._acks if seq <= applied_seq]
            acked = [self._acks.pop(seq) for seq in covered]
        if acked:
            get_registry().gauge("ingest.freshness_lag").set(swapped - min(acked))

    def join(self, timeout: float | None = None) -> None:
        """Wait for the background apply thread to drain (tests, close)."""
        thread = self._thread
        if thread is not None:
            thread.join(timeout)

    def close(self) -> None:
        """Let a running apply finish, then close the journal.

        The server calls this once it has drained, so no submit can
        start another apply.
        """
        self.join()
        self.service.wal.close()

    def _schedule_apply(self) -> None:
        with self._state_lock:
            self._wakeup.set()
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._apply_loop, name="serve-ingest-apply", daemon=True
                )
                self._thread.start()

    def _apply_loop(self) -> None:
        while True:
            with self._state_lock:
                if not self._wakeup.is_set():
                    self._thread = None
                    return
                self._wakeup.clear()
            try:
                self.apply_now()
            except Exception as exc:
                # The old surface keeps serving and the journal keeps the
                # acked batches; the next submit (or restart) retries.
                get_registry().counter("ingest.apply.errors").inc()
                _LOG.exception("ingest.apply_failed", exc)
                with self._state_lock:
                    self._thread = None
                return


def enable_ingest(
    server: "AioServer",
    ingest_dir: Path | str,
    cache: "DatasetCache | None" = None,
    strict: bool = False,
    max_backlog: int | None = None,
) -> ServeIngestor:
    """Enable ``POST /v1/ingest`` on *server*, journaling into *ingest_dir*.

    Call before the server starts serving: the journal is recovered
    here.  Acked-but-unapplied batches (a crash between journal and
    checkpoint) are applied, and a fully checkpointed journal is swapped
    in, so the first request already sees the whole journal.

    Args:
        max_backlog: Bound on acked-but-unapplied batches before
            submissions get 429 (default
            :data:`repro.ingest.service.DEFAULT_MAX_BACKLOG`).
    """
    service = IngestService(
        ingest_dir,
        max_backlog=max_backlog if max_backlog is not None else DEFAULT_MAX_BACKLOG,
        strict=strict,
    )
    ingestor = ServeIngestor(server, service, cache=cache, strict=strict)
    server.context.ingest = ingestor
    if service.backlog() > 0:
        ingestor.apply_now()
    elif service.wal.last_seq > 0:
        # Everything is checkpointed, but the base surface does not carry
        # the journal: swap in the overlay world now (the fast path —
        # shards come from the cache).
        ingestor.apply_now(force=True)
    return ingestor
