"""Journaled appends as a partition overlay on the base datasets.

The scenario's base datasets stay exactly what the synthetic generators
(or a warm cache) produce — appended records never touch those cache
entries.  Instead the journal is folded into an :class:`IngestOverlay`:
per affected dataset, the sorted list of dirty month×country partitions
and their canonical rows.  :func:`apply_overlay` runs on a dataset's way
out of materialisation and

* loads each dirty partition's packed shard from the cache
  (``ingest.partition.hit``) or builds it from the rows
  (``ingest.partition.built``) — shard entries are named
  ``<dataset>@<month>.<country>`` and keyed on the scenario params plus
  the partition's content digest and the ingest code fingerprint, so an
  append only ever rebuilds the partitions whose content changed;
* merges the shards onto the base with the adapter's pure append-at-end
  merge.

Untouched datasets pass through unchanged, untouched partitions report
cache hits, and because the merge is a pure function of (base, shards),
an incremental refresh is byte-identical to a full cold rebuild under
the same overlay — the property crash recovery is checked against via
:func:`dataset_fingerprint`.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.ingest.formats import FORMATS, PartitionKey
from repro.obs import get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scenario import Scenario
    from repro.ingest.wal import WalRecord


@lru_cache(maxsize=1)
def ingest_code_fingerprint() -> str:
    """Digest of the adapter/overlay sources, part of every shard key.

    Shard bytes depend on this module and the format adapters, which
    :func:`repro.exec.dag.code_fingerprint` does not cover (the base
    dataset's generators do not import them), so shard cache entries
    carry their own code fingerprint and go stale when this code does.
    """
    digest = hashlib.sha256()
    here = Path(__file__).parent
    for name in ("formats.py", "overlay.py"):
        digest.update((here / name).read_bytes())
    return digest.hexdigest()[:16]


def _adapter_for_dataset(dataset: str):
    for adapter in FORMATS.values():
        if adapter.dataset == dataset:
            return adapter
    raise KeyError(f"no ingest format feeds dataset {dataset!r}")


class IngestOverlay:
    """Immutable view of the journal as per-dataset dirty partitions.

    Equality and hashing go through the content fingerprint, so the
    overlay can ride inside scenario parameters — two pools keyed on the
    same journal state share one warm scenario, and a new append changes
    the key and forces exactly one rebuild.
    """

    def __init__(
        self, ledger: dict[str, dict[PartitionKey, tuple[str, ...]]]
    ) -> None:
        self._ledger: dict[str, list[tuple[PartitionKey, tuple[str, ...]]]] = {
            dataset: sorted(partitions.items())
            for dataset, partitions in sorted(ledger.items())
            if partitions
        }
        digest = hashlib.sha256()
        for dataset, partitions in self._ledger.items():
            digest.update(dataset.encode())
            for key, lines in partitions:
                digest.update(key.shard_id.encode())
                for line in lines:
                    digest.update(b"\0")
                    digest.update(line.encode())
        self.fingerprint = digest.hexdigest()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IngestOverlay)
            and other.fingerprint == self.fingerprint
        )

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    def __repr__(self) -> str:
        return f"IngestOverlay({self.fingerprint[:12]}, {self.summary()})"

    def __bool__(self) -> bool:
        return bool(self._ledger)

    def datasets(self) -> list[str]:
        """Datasets with at least one dirty partition, sorted."""
        return list(self._ledger)

    def partitions(
        self, dataset: str
    ) -> list[tuple[PartitionKey, tuple[str, ...]]]:
        """The dirty partitions of *dataset*, sorted by (month, country)."""
        return list(self._ledger.get(dataset, []))

    def summary(self) -> dict[str, list[str]]:
        """dataset -> dirty shard ids, for receipts and healthz."""
        return {
            dataset: [key.shard_id for key, _lines in partitions]
            for dataset, partitions in self._ledger.items()
        }


def build_overlay(records: Iterable["WalRecord"]) -> IngestOverlay:
    """Fold journal records (in seq order) into an overlay.

    Row feeds accumulate rows per partition in journal order; snapshot
    feeds (PeeringDB) keep only the latest record per partition, the
    replace semantics a monthly dump implies.
    """
    ledger: dict[str, dict[PartitionKey, list[str]]] = {}
    for record in records:
        adapter = FORMATS.get(record.format)
        if adapter is None:
            raise KeyError(f"journal names unknown ingest format {record.format!r}")
        partitions = ledger.setdefault(adapter.dataset, {})
        accumulate = getattr(adapter, "accumulate", True)
        for key, lines in adapter.partition(list(record.lines), record.meta).items():
            if accumulate:
                partitions.setdefault(key, []).extend(lines)
            else:
                partitions[key] = list(lines)
    return IngestOverlay(
        {
            dataset: {key: tuple(lines) for key, lines in partitions.items()}
            for dataset, partitions in ledger.items()
        }
    )


def apply_overlay(scenario: "Scenario", name: str, base):
    """*base* with the scenario overlay's shards for *name* merged in.

    Shards come from the dataset cache when their content digest
    matches (``ingest.partition.hit``) and are built from the canonical
    rows otherwise (``ingest.partition.built``) — the counters are the
    acceptance evidence that an append rebuilds only what it touched.
    """
    overlay: IngestOverlay = scenario.overlay  # type: ignore[assignment]
    partitions = overlay.partitions(name)
    if not partitions:
        return base
    adapter = _adapter_for_dataset(name)
    registry = get_registry()
    code = ingest_code_fingerprint()
    shards = []
    for key, lines in partitions:
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        shard_name = f"{name}@{key.shard_id}"
        params = {
            **scenario.cache_params(),
            "partition": key.shard_id,
            "digest": digest,
            "ingest_code": code,
        }
        shard = None
        if scenario.cache is not None:
            from repro.exec.cache import CacheMiss

            cached = scenario.cache.load(shard_name, params)
            if not isinstance(cached, CacheMiss):
                registry.counter("ingest.partition.hit").inc()
                shard = cached
        if shard is None:
            shard = adapter.build_shard(scenario, key, list(lines), {})
            registry.counter("ingest.partition.built").inc()
            if scenario.cache is not None:
                scenario.cache.store(shard_name, params, shard)
        shards.append((key, shard))
    return adapter.merge(scenario, base, shards)


def dataset_fingerprint(value) -> str:
    """Content digest of one materialised dataset value.

    Columnar values hash their kind, pools, and raw buffers; anything
    else hashes its pickle.  The checkpoint records these, so a
    recovered world can be shown to converge on the uninterrupted one.
    """
    import numpy as np

    from repro.columnar import Columnar

    digest = hashlib.sha256()
    if isinstance(value, Columnar):
        digest.update(value.kind.encode())
        digest.update(
            json.dumps(value.meta(), sort_keys=True, default=str).encode()
        )
        for column_name, array in value.columns().items():
            digest.update(column_name.encode())
            digest.update(np.ascontiguousarray(array).data)
    else:
        import pickle

        digest.update(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    return digest.hexdigest()
