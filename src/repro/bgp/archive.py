"""Monthly archives of BGP snapshots and their longitudinal queries.

Two archive types hold ``Month -> snapshot`` data as packed columns:

* :class:`ASRelArchive` answers the Fig. 8 / Fig. 9 questions -- how many
  upstreams and downstreams an AS had per month, and which providers served
  it for more than N months.
* :class:`Prefix2ASArchive` answers the Fig. 2 / Fig. 14 questions --
  announced address space per origin over time, and per-prefix visibility.

Both are :class:`repro.columnar.Columnar` values: one row per edge or
routed prefix, rows grouped by month, plus the list of snapshot months
(so an empty snapshot keeps its month).  The dataset cache stores them
as raw column buffers.  The longitudinal queries run on the arrays;
``archive[month]`` builds the month's snapshot object on demand, for the
wire formats and the per-snapshot queries.
"""

from __future__ import annotations

import ipaddress
from functools import cached_property
from itertools import islice
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from repro.bgp.asrel import P2C, ASRelationshipSnapshot, Relationship
from repro.bgp.prefix2as import OriginEntry, Prefix2ASSnapshot
from repro.columnar import ASN_MAX, Columnar, asn_array
from repro.timeseries.month import Month
from repro.timeseries.series import MonthlySeries


class _MonthlyArchive(Columnar):
    """Rows grouped by snapshot month: the layout both archives share.

    ``snapshot_month`` holds the ordinal of every snapshot, ascending;
    ``month_ordinal`` holds each row's month, rows in month order and,
    within a month, in the snapshot's own order.
    """

    snapshot_month: np.ndarray
    month_ordinal: np.ndarray

    def meta(self) -> dict[str, Any]:
        return {}

    @classmethod
    def from_columns(
        cls, meta: dict[str, Any], columns: dict[str, np.ndarray]
    ) -> "_MonthlyArchive":
        archive = cls.__new__(cls)
        for name in cls.COLUMNS:
            setattr(archive, name, columns[name])
        return archive

    def _set_months(self, months: list[Month], counts: list[int]) -> None:
        ordinals = np.array([m.ordinal() for m in months], dtype=np.int32)
        self.snapshot_month = ordinals
        self.month_ordinal = np.repeat(ordinals, counts)

    def _snapshot(self, lo: int, hi: int) -> Any:
        """The snapshot object over rows ``lo:hi``."""
        raise NotImplementedError

    # -- month index ---------------------------------------------------------

    @cached_property
    def _months(self) -> list[Month]:
        return [Month.from_ordinal(o) for o in self.snapshot_month.tolist()]

    @cached_property
    def _position(self) -> dict[Month, int]:
        return {month: i for i, month in enumerate(self._months)}

    @cached_property
    def _offsets(self) -> list[int]:
        """Row offset of each snapshot, plus the row count at the end."""
        starts = np.searchsorted(self.month_ordinal, self.snapshot_month)
        return starts.tolist() + [len(self.month_ordinal)]

    @cached_property
    def _month_index(self) -> np.ndarray:
        """Each row's snapshot position (an index into :meth:`months`)."""
        return np.searchsorted(self.snapshot_month, self.month_ordinal)

    # -- mapping API -----------------------------------------------------------

    def months(self) -> list[Month]:
        """All snapshot months, ascending."""
        return list(self._months)

    def __len__(self) -> int:
        return len(self.snapshot_month)

    def __contains__(self, month: object) -> bool:
        return month in self._position

    def __getitem__(self, month: Month) -> Any:
        i = self._position[month]
        return self._snapshot(self._offsets[i], self._offsets[i + 1])

    def items(self) -> Iterator[tuple[Month, Any]]:
        """(month, snapshot) pairs in month order."""
        offsets = self._offsets
        for i, month in enumerate(self._months):
            yield month, self._snapshot(offsets[i], offsets[i + 1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(months={len(self)}, "
            f"rows={len(self.month_ordinal)})"
        )


class ASRelArchive(_MonthlyArchive):
    """Monthly AS-relationship snapshots as edge columns."""

    kind = "bgp.asrel/1"
    #: ``rel`` holds each edge's ``Relationship.kind``; ``kind`` itself
    #: is the codec's kind string.
    COLUMNS = ("snapshot_month", "month_ordinal", "a", "b", "rel")

    def __init__(self, snapshots: Mapping[Month, ASRelationshipSnapshot]):
        months = sorted(snapshots)
        a: list[int] = []
        b: list[int] = []
        rel: list[int] = []
        counts = []
        for month in months:
            relationships = snapshots[month].relationships
            counts.append(len(relationships))
            for r in relationships:
                a.append(r.a)
                b.append(r.b)
                rel.append(r.kind)
        self._set_months(months, counts)
        self.a = asn_array(a)
        self.b = asn_array(b)
        self.rel = np.array(rel, dtype=np.int8)

    def _snapshot(self, lo: int, hi: int) -> ASRelationshipSnapshot:
        return ASRelationshipSnapshot(
            [
                Relationship(a, b, kind)
                for a, b, kind in zip(
                    self.a[lo:hi].tolist(),
                    self.b[lo:hi].tolist(),
                    self.rel[lo:hi].tolist(),
                )
            ]
        )

    def _transit(self, asn: int, upstream: bool) -> tuple[np.ndarray, np.ndarray]:
        """Distinct (snapshot position, neighbour) P2C pairs of *asn*.

        With *upstream* the neighbours are *asn*'s providers, otherwise
        its customers; pairs come sorted by position, then neighbour.
        """
        own, other = (self.b, self.a) if upstream else (self.a, self.b)
        rows = np.flatnonzero((self.rel == P2C) & (own == asn))
        keys = np.unique(
            (self._month_index[rows] << 32) | other[rows].astype(np.int64)
        )
        return keys >> 32, keys & ASN_MAX

    # -- Fig. 8: degree series -----------------------------------------------

    def _degree_series(self, asn: int, upstream: bool) -> MonthlySeries:
        positions, _ = self._transit(asn, upstream)
        counts = np.bincount(positions, minlength=len(self)).tolist()
        return MonthlySeries(
            {m: float(c) for m, c in zip(self._months, counts)}
        )

    def upstream_count_series(self, asn: int) -> MonthlySeries:
        """Number of transit providers of *asn* per month."""
        return self._degree_series(asn, upstream=True)

    def downstream_count_series(self, asn: int) -> MonthlySeries:
        """Number of transit customers of *asn* per month."""
        return self._degree_series(asn, upstream=False)

    # -- Fig. 9: transit heatmap ------------------------------------------------

    def transit_matrix(self, asn: int) -> dict[int, set[Month]]:
        """For each provider that ever served *asn*, the months it did."""
        positions, providers = self._transit(asn, upstream=True)
        months = self._months
        matrix: dict[int, set[Month]] = {}
        for i, provider in zip(positions.tolist(), providers.tolist()):
            matrix.setdefault(provider, set()).add(months[i])
        return matrix

    def providers_serving(self, asn: int, min_months: int = 1) -> list[int]:
        """Providers that served *asn* for at least *min_months* snapshots."""
        _, providers = self._transit(asn, upstream=True)
        unique, months_served = np.unique(providers, return_counts=True)
        return unique[months_served >= min_months].tolist()

    def provider_intervals(self, asn: int, provider: int) -> list[tuple[Month, Month]]:
        """Contiguous service intervals of *provider* for *asn*.

        Contiguity is relative to the archive's snapshot months: an interval
        breaks when a snapshot exists in which the provider is absent.
        """
        rows = np.flatnonzero(
            (self.rel == P2C) & (self.b == asn) & (self.a == provider)
        )
        served = np.unique(self._month_index[rows])
        if not served.size:
            return []
        breaks = np.flatnonzero(np.diff(served) > 1)
        firsts = np.concatenate(([served[0]], served[breaks + 1])).tolist()
        lasts = np.concatenate((served[breaks], [served[-1]])).tolist()
        months = self._months
        return [(months[f], months[l]) for f, l in zip(firsts, lasts)]


class Prefix2ASArchive(_MonthlyArchive):
    """Monthly prefix-to-AS snapshots as prefix columns.

    A prefix is its network address (``start``) and ``prefixlen``; its
    origins are the ``origin_count`` consecutive ASNs it owns in the
    flat ``origins`` column, which holds multi-origin entries and
    AS-sets alike.
    """

    kind = "bgp.prefix2as/1"
    COLUMNS = (
        "snapshot_month",
        "month_ordinal",
        "start",
        "prefixlen",
        "origin_count",
        "origins",
    )

    def __init__(self, snapshots: Mapping[Month, Prefix2ASSnapshot]):
        months = sorted(snapshots)
        start: list[int] = []
        prefixlen: list[int] = []
        origin_count: list[int] = []
        origins: list[int] = []
        counts = []
        for month in months:
            entries = snapshots[month].entries
            counts.append(len(entries))
            for entry in entries:
                network = entry.network
                if network.version != 4:
                    raise ValueError(f"not an IPv4 prefix: {network}")
                start.append(int(network.network_address))
                prefixlen.append(network.prefixlen)
                origin_count.append(len(entry.origins))
                origins.extend(entry.origins)
        self._set_months(months, counts)
        self.start = np.array(start, dtype=np.uint32)
        self.prefixlen = np.array(prefixlen, dtype=np.uint8)
        self.origin_count = np.array(origin_count, dtype=np.uint16)
        self.origins = asn_array(origins)

    @cached_property
    def _origin_offsets(self) -> list[int]:
        return [0] + np.cumsum(self.origin_count, dtype=np.int64).tolist()

    @cached_property
    def _origin_row(self) -> np.ndarray:
        """The row each entry of ``origins`` belongs to."""
        return np.repeat(
            np.arange(len(self.start), dtype=np.int64), self.origin_count
        )

    def _snapshot(self, lo: int, hi: int) -> Prefix2ASSnapshot:
        offsets = self._origin_offsets
        origins = iter(self.origins[offsets[lo] : offsets[hi]].tolist())
        return Prefix2ASSnapshot(
            [
                OriginEntry(
                    ipaddress.IPv4Network((address, length)),
                    tuple(islice(origins, count)),
                )
                for address, length, count in zip(
                    self.start[lo:hi].tolist(),
                    self.prefixlen[lo:hi].tolist(),
                    self.origin_count[lo:hi].tolist(),
                )
            ]
        )

    def _rows_of(self, asn: int) -> np.ndarray:
        """Rows whose origins include *asn*, ascending.

        A row listing *asn* twice appears twice; neither the interval
        union nor the visibility sets can tell.
        """
        return self._origin_row[self.origins == asn]

    # -- Fig. 2: announced space -------------------------------------------------

    def announced_series(self, asn: int) -> MonthlySeries:
        """Announced (collapsed) address count of *asn* per month.

        Per month, the size of the union of *asn*'s prefixes as integer
        intervals: the same count as summing ``num_addresses`` over
        ``ipaddress.collapse_addresses``, without building a network.
        """
        rows = self._rows_of(asn)
        positions = self._month_index[rows]
        lo = self.start[rows].astype(np.int64)
        hi = lo + (np.int64(1) << (32 - self.prefixlen[rows].astype(np.int64)))
        order = np.lexsort((lo, positions))
        positions = positions[order]
        # Shift each month into its own 2**33-wide band, above every
        # earlier month's addresses, so one running maximum of interval
        # ends serves all months.
        band = positions << 33
        lo = lo[order] + band
        hi = hi[order] + band
        reach = np.concatenate(([0], np.maximum.accumulate(hi)[:-1]))
        fresh = np.maximum(hi - np.maximum(lo, reach), 0)
        totals = np.zeros(len(self), dtype=np.int64)
        np.add.at(totals, positions, fresh)
        return MonthlySeries(
            {m: float(t) for m, t in zip(self._months, totals.tolist())}
        )

    # -- Fig. 14: visibility matrix ------------------------------------------------

    def visibility_matrix(
        self, asn: int, prefixes: Iterable[str] | None = None
    ) -> dict[str, set[Month]]:
        """Months each prefix of *asn* was routed.

        Args:
            asn: Origin AS whose prefixes are tracked.
            prefixes: Optional explicit prefix list (CIDR strings).  When
                omitted, every prefix the AS ever originated in the archive
                is tracked, in address order.
        """
        rows = self._rows_of(asn)
        keys = (self.start[rows].astype(np.int64) << 6) | self.prefixlen[rows]
        routed: dict[int, set[Month]] = {}
        months = self._months
        for key, i in zip(keys.tolist(), self._month_index[rows].tolist()):
            routed.setdefault(key, set()).add(months[i])
        if prefixes is None:
            return {
                f"{ipaddress.IPv4Address(key >> 6)}/{key & 63}": routed[key]
                for key in sorted(routed)
            }
        matrix: dict[str, set[Month]] = {}
        for net in dict.fromkeys(ipaddress.ip_network(p) for p in prefixes):
            key = (int(net.network_address) << 6) | net.prefixlen
            matrix[str(net)] = routed.get(key, set()) if net.version == 4 else set()
        return matrix
