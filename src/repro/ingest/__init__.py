"""Durable streaming ingestion: quarantine, WAL, formats, and recovery.

The package has two halves:

* :mod:`repro.ingest.quarantine` — the per-record quarantine / error
  budget machinery every lenient parser uses (the historical
  ``repro.ingest`` module; its API is re-exported here unchanged).
* The durable append path — a checksummed, fsync'd write-ahead journal
  (:mod:`repro.ingest.wal`, schema ``repro.wal/1``), wire-format
  adapters that validate and partition appended records
  (:mod:`repro.ingest.formats`), the partition overlay that merges
  appended shards onto cached base datasets
  (:mod:`repro.ingest.overlay`), and the :class:`IngestService`
  front-end with journal-before-ack at-least-once delivery
  (:mod:`repro.ingest.service`).

Batches reach the journal through one transport, ``POST
/v1/ingest/<format>`` on ``repro serve --ingest-dir``.  Delivery
semantics, the journal format, backpressure, and crash recovery are
documented in ``docs/INGEST.md``; ``tests/serve/test_crash_recovery.py``
SIGKILLs a real server at every crash point and proves its restart
converges on the uninterrupted run.

Heavier submodules (service, overlay) are imported lazily by their
users; importing ``repro.ingest`` itself stays as cheap as the old
single-module form so parser hot paths pay nothing new.
"""

from __future__ import annotations

from repro.ingest.quarantine import (
    DEFAULT_BUDGET,
    ErrorBudget,
    ErrorBudgetExceeded,
    Quarantine,
    QuarantinedRecord,
    quarantining_parse,
)

__all__ = [
    "DEFAULT_BUDGET",
    "ErrorBudget",
    "ErrorBudgetExceeded",
    "Quarantine",
    "QuarantinedRecord",
    "quarantining_parse",
]
