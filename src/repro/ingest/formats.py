"""Wire-format adapters behind ``POST /v1/ingest/<format>``.

One adapter per appendable feed. Each knows how to

* **canonicalise** a submitted batch — run the records through the
  existing strict/lenient parser (with quarantine under the error
  budget) and re-serialise survivors in the canonical row form, so the
  journal stores exactly one byte representation of each record and
  content-hash idempotency keys are stable across client formatting;
* **partition** canonical rows into the month×country shards they dirty
  (Atlas traceroutes partition by month only; a PeeringDB dump is one
  whole-month shard);
* **build a shard** — the partition's rows as the dataset's own packed
  column form, with a shard-local string pool; and
* **merge** shards onto the base dataset — append-at-end: base rows
  keep their original order, appended rows follow in partition order,
  so aggregations keyed on first-encounter order are untouched for base
  data and the merged value is a pure function of (base, shards) — the
  property the incremental-vs-cold byte-identity check rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.ingest.quarantine import Quarantine
from repro.timeseries.month import Month

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scenario import Scenario


class IngestFormatError(ValueError):
    """A submitted batch that can never be applied (not quarantinable)."""


@dataclass(frozen=True, slots=True, order=True)
class PartitionKey:
    """One dirty shard: a month, and a country where the feed has one."""

    month: str
    country: str = ""

    @property
    def shard_id(self) -> str:
        """The suffix of the shard's cache entry name."""
        return f"{self.month}.{self.country or 'all'}"


def _canonical_rows(
    component: str,
    lines: Iterable[str],
    parse: Callable[[str], object],
    canonical: Callable[[object], str],
    strict: bool,
) -> tuple[list[str], Quarantine | None]:
    """Parse every row, keep survivors in canonical serialisation."""
    quarantine = None if strict else Quarantine(component)
    accepted: list[str] = []
    for line_no, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            accepted.append(canonical(parse(raw)))
        except ValueError as exc:
            if quarantine is None:
                raise
            quarantine.admit(line_no, raw, str(exc) or type(exc).__name__)
    if quarantine is not None:
        quarantine.check(len(accepted))
    return accepted, quarantine


class NDTFormat:
    """M-Lab NDT rows (the ``parse_ndt_jsonl`` JSONL layout)."""

    name = "ndt"
    dataset = "ndt_tests"

    def canonicalise(
        self, lines: Iterable[str], meta: dict[str, str], strict: bool
    ) -> tuple[list[str], Quarantine | None]:
        from repro.mlab.ndt import NDTResult

        return _canonical_rows(
            "ingest_ndt", lines, NDTResult.from_json, lambda r: r.to_json(), strict
        )

    def partition(
        self, lines: list[str], meta: dict[str, str]
    ) -> dict[PartitionKey, list[str]]:
        from repro.mlab.ndt import NDTResult

        shards: dict[PartitionKey, list[str]] = {}
        for line in lines:
            result = NDTResult.from_json(line)
            key = PartitionKey(month=str(result.month), country=result.country)
            shards.setdefault(key, []).append(line)
        return shards

    def build_shard(
        self, scenario: "Scenario", key: PartitionKey, lines: list[str], meta: dict
    ):
        from repro.mlab.columns import NDTColumns
        from repro.mlab.ndt import NDTResult

        rows = [NDTResult.from_json(line) for line in lines]
        countries = sorted({r.country for r in rows})
        code = {cc: i for i, cc in enumerate(countries)}
        return NDTColumns(
            countries=countries,
            month_ordinal=np.array(
                [Month.from_date(r.date).ordinal() for r in rows], dtype=np.int32
            ),
            day=np.array([r.date.day for r in rows], dtype=np.uint8),
            country_idx=np.array([code[r.country] for r in rows], dtype=np.uint16),
            asn=np.array([r.asn for r in rows], dtype=np.int64),
            download_mbps=np.array([r.download_mbps for r in rows], dtype=np.float64),
            upload_mbps=np.array([r.upload_mbps for r in rows], dtype=np.float64),
            min_rtt_ms=np.array([r.min_rtt_ms for r in rows], dtype=np.float64),
            loss_rate=np.array([r.loss_rate for r in rows], dtype=np.float64),
        )

    def merge(self, scenario: "Scenario", base, shards):
        from repro.mlab.columns import NDTColumns

        if not shards:
            return base
        countries, remaps = _extend_pool(
            base.countries, [shard.countries for _key, shard in shards]
        )
        batches = [shard for _key, shard in shards]
        return NDTColumns(
            countries=countries,
            month_ordinal=_cat(base, batches, "month_ordinal"),
            day=_cat(base, batches, "day"),
            country_idx=np.concatenate(
                [base.country_idx]
                + [remap[s.country_idx] for remap, s in zip(remaps, batches)]
            ).astype(np.uint16),
            asn=_cat(base, batches, "asn"),
            download_mbps=_cat(base, batches, "download_mbps"),
            upload_mbps=_cat(base, batches, "upload_mbps"),
            min_rtt_ms=_cat(base, batches, "min_rtt_ms"),
            loss_rate=_cat(base, batches, "loss_rate"),
        )


class AtlasFormat:
    """RIPE Atlas traceroute results (the GPDNS campaign layout).

    Traceroutes that never reached their destination carry no usable
    RTT, so they are rejected at the door (quarantined in lenient mode)
    rather than silently diluting per-probe minima.  Partitioning is by
    month only: probe metadata, not the row, decides the country.
    """

    name = "atlas"
    dataset = "gpdns_traceroutes"

    def canonicalise(
        self, lines: Iterable[str], meta: dict[str, str], strict: bool
    ) -> tuple[list[str], Quarantine | None]:
        from repro.atlas.traceroute import TracerouteResult

        def parse(raw: str) -> TracerouteResult:
            result = TracerouteResult.from_json(raw)
            if not result.reached_destination():
                raise ValueError("traceroute did not reach its destination")
            return result

        return _canonical_rows(
            "ingest_atlas", lines, parse, lambda r: r.to_json(), strict
        )

    def partition(
        self, lines: list[str], meta: dict[str, str]
    ) -> dict[PartitionKey, list[str]]:
        from repro.atlas.traceroute import TracerouteResult

        shards: dict[PartitionKey, list[str]] = {}
        for line in lines:
            result = TracerouteResult.from_json(line)
            shards.setdefault(PartitionKey(month=str(result.month)), []).append(line)
        return shards

    def build_shard(
        self, scenario: "Scenario", key: PartitionKey, lines: list[str], meta: dict
    ):
        from repro.atlas.columns import TracerouteColumns
        from repro.atlas.traceroute import TracerouteResult

        rows = [TracerouteResult.from_json(line) for line in lines]

        def probe_country(probe_id: int) -> str:
            try:
                return scenario.probes.by_id(probe_id).country
            except KeyError:
                return "ZZ"  # unknown probe: parked under the reserved code

        per_row_cc = [probe_country(r.probe_id) for r in rows]
        countries = sorted(set(per_row_cc))
        code = {cc: i for i, cc in enumerate(countries)}
        return TracerouteColumns(
            countries=countries,
            msm_id=rows[0].msm_id if rows else 0,
            dst_addr=rows[0].dst_addr if rows else "",
            probe_id=np.array([r.probe_id for r in rows], dtype=np.int64),
            country_idx=np.array([code[cc] for cc in per_row_cc], dtype=np.uint16),
            month_ordinal=np.array(
                [r.month.ordinal() for r in rows], dtype=np.int32
            ),
            sample=np.zeros(len(rows), dtype=np.uint8),
            timestamp=np.array([r.timestamp for r in rows], dtype=np.int64),
            final_rtt=np.array(
                [r.destination_rtt() for r in rows], dtype=np.float64
            ),
        )

    def merge(self, scenario: "Scenario", base, shards):
        from repro.atlas.columns import TracerouteColumns

        if not shards:
            return base
        countries, remaps = _extend_pool(
            base.countries, [shard.countries for _key, shard in shards]
        )
        batches = [shard for _key, shard in shards]
        return TracerouteColumns(
            countries=countries,
            msm_id=base.msm_id,
            dst_addr=base.dst_addr,
            probe_id=_cat(base, batches, "probe_id"),
            country_idx=np.concatenate(
                [base.country_idx]
                + [remap[s.country_idx] for remap, s in zip(remaps, batches)]
            ).astype(np.uint16),
            month_ordinal=_cat(base, batches, "month_ordinal"),
            sample=_cat(base, batches, "sample"),
            timestamp=_cat(base, batches, "timestamp"),
            final_rtt=_cat(base, batches, "final_rtt"),
        )


class PeeringDBFormat:
    """Whole monthly PeeringDB dumps (the public-dump JSON layout).

    One submitted batch is one dump for one month — ``meta["month"]``
    names it — and merging inserts (or replaces) that month's snapshot
    in the archive.
    """

    name = "peeringdb"
    dataset = "peeringdb"
    #: Snapshot feed: a re-submitted month replaces, never accumulates.
    accumulate = False

    def canonicalise(
        self, lines: Iterable[str], meta: dict[str, str], strict: bool
    ) -> tuple[list[str], Quarantine | None]:
        from repro.peeringdb.schema import PeeringDBSnapshot

        month = meta.get("month", "")
        try:
            Month.parse(month)
        except ValueError:
            raise IngestFormatError(
                "peeringdb batches need meta['month'] as YYYY-MM "
                f"(got {month!r})"
            ) from None
        text = "\n".join(lines)
        quarantine = None if strict else Quarantine("ingest_peeringdb")
        snapshot = PeeringDBSnapshot.from_json(
            text, strict=strict, quarantine=quarantine
        )
        return [snapshot.to_json()], quarantine

    def partition(
        self, lines: list[str], meta: dict[str, str]
    ) -> dict[PartitionKey, list[str]]:
        return {PartitionKey(month=meta["month"]): list(lines)}

    def build_shard(
        self, scenario: "Scenario", key: PartitionKey, lines: list[str], meta: dict
    ):
        from repro.peeringdb.schema import PeeringDBSnapshot

        return PeeringDBSnapshot.from_json("\n".join(lines))

    def merge(self, scenario: "Scenario", base, shards):
        from repro.peeringdb.archive import PeeringDBArchive

        if not shards:
            return base
        snapshots = {month: snapshot for month, snapshot in base.items()}
        for key, shard in shards:
            snapshots[Month.parse(key.month)] = shard
        return PeeringDBArchive(snapshots)


def _extend_pool(
    base_pool: list[str], shard_pools: list[list[str]]
) -> tuple[list[str], list[np.ndarray]]:
    """Base string pool extended in place, plus per-shard index remaps.

    Existing pool entries keep their indices (base rows need no rewrite);
    genuinely new values are appended in first-encounter order across
    the shard sequence.
    """
    pool = list(base_pool)
    index = {value: i for i, value in enumerate(pool)}
    remaps = []
    for shard_pool in shard_pools:
        remap = np.empty(len(shard_pool), dtype=np.int64)
        for i, value in enumerate(shard_pool):
            if value not in index:
                index[value] = len(pool)
                pool.append(value)
            remap[i] = index[value]
        remaps.append(remap)
    return pool, remaps


def _cat(base, batches, column: str) -> np.ndarray:
    """Base column with every shard's column appended, dtype preserved."""
    base_array = getattr(base, column)
    return np.concatenate(
        [base_array] + [getattr(batch, column) for batch in batches]
    ).astype(base_array.dtype)


#: Registered adapters, keyed by their wire name.
FORMATS: dict[str, object] = {
    adapter.name: adapter
    for adapter in (NDTFormat(), AtlasFormat(), PeeringDBFormat())
}


def get_format(name: str):
    """The adapter for *name*; raises :class:`KeyError` when unknown."""
    return FORMATS[name]
