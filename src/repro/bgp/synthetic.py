"""Scripted synthetic BGP histories calibrated to the paper.

Two generators live here:

* :func:`synthesize_asrel_archive` -- monthly AS-relationship snapshots
  from 1998 to 2023 in which CANTV-AS8048's transit history follows the
  paper's Fig. 9 roster (11 upstreams at the 2013 peak, 3 by 2020, a
  rebound afterwards, with the scripted departures of every US-registered
  provider except Columbus Networks) and its customer base grows after the
  2007 nationalisation as described in Section 6.1.
* :func:`synthesize_prefix2as_archive` -- monthly RouteViews prefix2as
  snapshots from 2008 to 2024 implementing the announcement schedules
  behind Fig. 2 and the Appendix C Telefonica withdrawal/reappearance
  (several /17s vanish in June 2016 and return in June 2023 as covering
  aggregates).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import lru_cache

from repro.bgp.archive import ASRelArchive, Prefix2ASArchive
from repro.bgp.asrel import P2C, P2P, ASRelationshipSnapshot, Relationship
from repro.bgp.prefix2as import OriginEntry, Prefix2ASSnapshot
from repro.obs import get_registry
from repro.registry import address_plan
from repro.registry.address_plan import AS_CANTV, AS_TELEFONICA
from repro.timeseries.month import Month, month_range


@dataclass(frozen=True, slots=True)
class TransitProvider:
    """One provider in CANTV's transit history (a Fig. 9 row)."""

    asn: int
    name: str
    country: str
    #: Service intervals as ((start, end), ...) with end=None for "ongoing".
    intervals: tuple[tuple[Month, Month | None], ...]

    def active_in(self, month: Month, archive_end: Month) -> bool:
        """Whether the provider served CANTV in *month*."""
        for start, end in self.intervals:
            effective_end = end if end is not None else archive_end
            if start <= month <= effective_end:
                return True
        return False


def _iv(start: str, end: str | None) -> tuple[Month, Month | None]:
    return (Month.parse(start), Month.parse(end) if end else None)


#: CANTV's transit providers: the Fig. 9 roster.  Departure dates follow the
#: paper's narrative: Verizon/Sprint/AT&T leave in 2013, GTT (both ASNs) in
#: 2017, Level3 (both ASNs) in 2018; Arelion and Telxius also stop; Columbus
#: Networks remains the only US-registered provider; Telecom Italia is the
#: longstanding partner; Orange returns after a period of inactivity;
#: V.tal and Gold Data sustain the recent rebound.
CANTV_TRANSIT_INTERVALS: tuple[TransitProvider, ...] = (
    TransitProvider(701, "Verizon", "US", (_iv("1998-01", "2013-06"),)),
    TransitProvider(1239, "Sprint", "US", (_iv("1999-02", "2013-09"),)),
    TransitProvider(1299, "Arelion", "SE", (_iv("2012-06", "2016-08"),)),
    TransitProvider(3257, "GTT", "US", (_iv("2010-04", "2017-05"),)),
    TransitProvider(3356, "Level3/Lumen/Cirion", "US", (_iv("2008-04", "2018-06"),)),
    TransitProvider(3549, "Level3 (Global Crossing)", "US", (_iv("2000-04", "2018-03"),)),
    TransitProvider(4004, "Global One", "US", (_iv("1998-06", "2002-04"),)),
    TransitProvider(4436, "GTT (nLayer)", "US", (_iv("2012-03", "2017-05"),)),
    TransitProvider(5511, "Orange", "FR", (_iv("2007-04", "2011-12"), _iv("2021-03", None))),
    TransitProvider(6762, "Telecom Italia Sparkle", "IT", (_iv("2001-04", None),)),
    TransitProvider(7018, "AT&T", "US", (_iv("2004-04", "2013-12"),)),
    TransitProvider(7927, "Genuity LatAm", "US", (_iv("1998-01", "2003-06"),)),
    TransitProvider(12956, "Telxius", "ES", (_iv("2006-04", "2016-12"),)),
    TransitProvider(19962, "Telscape", "US", (_iv("2003-05", "2009-08"),)),
    TransitProvider(23520, "Columbus Networks", "US", (_iv("2005-04", None),)),
    TransitProvider(28007, "Gold Data", "CR", (_iv("2021-09", None),)),
    TransitProvider(52320, "V.tal (GlobeNet)", "BR", (_iv("2014-06", None),)),
    TransitProvider(262589, "Regional carrier", "PA", (_iv("2022-01", None),)),
)

#: US-registered provider ASNs, for the sanctions-era departure analysis.
US_REGISTERED_PROVIDERS: frozenset[int] = frozenset(
    p.asn for p in CANTV_TRANSIT_INTERVALS if p.country == "US"
)

#: CANTV's transit customers: the domestic expansion after the 2007
#: nationalisation (academic institutions, banks, regional ISPs).
#: (asn, start, end-or-None)
_CANTV_CUSTOMERS: tuple[tuple[int, str, str | None], ...] = (
    (27717, "2004-03", None),          # university network
    (27718, "2005-06", None),          # government network
    (14317, "2006-02", "2015-08"),     # early cable ISP, later left
    (14318, "2007-09", None),
    (21826, "2008-01", None),          # Telemic / Inter
    (27889, "2008-07", None),          # Movilnet
    (26613, "2009-03", None),          # bank
    (26614, "2009-11", None),          # bank
    (52075, "2010-05", None),          # academic
    (52320, "2010-09", "2012-01"),     # briefly a customer before providing
    (263703, "2012-04", None),         # Viginet
    (264628, "2014-02", None),         # Fibex
    (264731, "2014-09", None),         # Digitel
    (61461, "2015-03", None),          # Airtek
    (265641, "2016-08", None),         # CIX Broadband
    (267809, "2017-05", None),         # 360NET
    (269738, "2018-02", None),         # Chircalnet
    (269832, "2019-06", None),         # MDS Telecom
    (269918, "2020-04", None),         # Telcorp
    (270042, "2021-01", None),         # Red Dot
    (272102, "2021-10", None),         # Besser Solutions
    (272809, "2022-05", None),         # Thundernet
    (273100, "2023-02", None),         # late regional ISP
)

#: :data:`_CANTV_CUSTOMERS` with parsed months: (asn, start, end-or-None).
_CUSTOMER_SPANS: tuple[tuple[int, Month, Month | None], ...] = tuple(
    (asn, Month.parse(start), Month.parse(end) if end else None)
    for asn, start, end in _CANTV_CUSTOMERS
)

#: A small static international backbone so the AS graph has realistic
#: structure above CANTV's providers: a tier-1 clique plus second-tier links.
_TIER1: tuple[int, ...] = (701, 1239, 1299, 3257, 3356, 6762, 7018, 2914, 6453)
_SECOND_TIER_UPLINKS: tuple[tuple[int, int], ...] = (
    # (provider, customer)
    (3356, 3549),
    (701, 4004),
    (1239, 7927),
    (7018, 19962),
    (6453, 23520),
    (2914, 5511),
    (12956, 52320),
    (6762, 12956),
    (3356, 28007),
    (6453, 262589),
)


#: Content provider interconnection: Google peers with the US backbone
#: carriers only; Meta peers with two and buys from a third; Netflix buys
#: transit.  These static edges are what make CANTV's valley-free paths to
#: content lengthen when its US transits depart (see repro.bgp.paths).
AS_GOOGLE = 15_169
AS_META = 32_934
AS_NETFLIX = 2_906
_CONTENT_PEERINGS: tuple[tuple[int, int], ...] = (
    (AS_GOOGLE, 701), (AS_GOOGLE, 1239), (AS_GOOGLE, 7018),
    (AS_GOOGLE, 3356), (AS_GOOGLE, 3549), (AS_GOOGLE, 2914),
    (AS_GOOGLE, 6453),
    (AS_META, 2914), (AS_META, 3356),
)
_CONTENT_UPLINKS: tuple[tuple[int, int], ...] = (
    # (provider, customer)
    (6453, AS_META),
    (3356, AS_NETFLIX),
    (2914, AS_NETFLIX),
)


def _tier1_mesh() -> list[Relationship]:
    rels = []
    for i, a in enumerate(_TIER1):
        for b in _TIER1[i + 1 :]:
            rels.append(Relationship(a, b, P2P))
    return rels


def _snapshot_for(month: Month, archive_end: Month) -> ASRelationshipSnapshot:
    """Build the AS-relationship snapshot for one month."""
    rels = _tier1_mesh()
    rels.extend(Relationship(p, c, P2C) for p, c in _SECOND_TIER_UPLINKS)
    rels.extend(Relationship(a, b, P2P) for a, b in _CONTENT_PEERINGS)
    rels.extend(Relationship(p, c, P2C) for p, c in _CONTENT_UPLINKS)
    for provider in CANTV_TRANSIT_INTERVALS:
        if provider.active_in(month, archive_end):
            rels.append(Relationship(provider.asn, AS_CANTV, P2C))
    for asn, starts, ends in _CUSTOMER_SPANS:
        if starts <= month <= (ends or archive_end):
            rels.append(Relationship(AS_CANTV, asn, P2C))
    # Telefonica de Venezuela homes to its parent's backbone throughout.
    rels.append(Relationship(12956, AS_TELEFONICA, P2C))
    rels.append(Relationship(23520, AS_TELEFONICA, P2C))
    return ASRelationshipSnapshot(rels)


def synthesize_asrel_archive(
    start: Month = Month(1998, 1), end: Month = Month(2023, 12)
) -> ASRelArchive:
    """Monthly AS-relationship archive with the scripted CANTV history."""
    snapshots = {m: _snapshot_for(m, end) for m in month_range(start, end)}
    get_registry().counter("bgp.asrel.rows_emitted").inc(
        sum(len(s) for s in snapshots.values())
    )
    return ASRelArchive(snapshots)


# ---------------------------------------------------------------------------
# prefix2as
# ---------------------------------------------------------------------------

#: Telefonica blocks announced as /17 more-specifics (the Fig. 14 rows).
_TEF_DEAGGREGATED = ("179.20.0.0/14", "179.44.0.0/14", "181.180.0.0/14",
                     "181.184.0.0/14", "161.255.0.0/16")
#: Telefonica blocks withdrawn in June 2016 and re-announced as covering
#: aggregates in June 2023 (Appendix C).
_TEF_WITHDRAWN = ("179.20.0.0/14", "179.44.0.0/14", "161.255.0.0/16")
_TEF_WITHDRAW_MONTH = Month(2016, 6)
_TEF_REANNOUNCE_MONTH = Month(2023, 6)


@lru_cache(maxsize=None)
def _network(cidr: str) -> ipaddress.IPv4Network:
    """The parsed block (each is announced in many monthly snapshots)."""
    return ipaddress.IPv4Network(cidr)


@lru_cache(maxsize=None)
def _subnets_17(cidr: str) -> tuple[str, ...]:
    """All /17 subnets of a block (the block itself if already /17+)."""
    network = _network(cidr)
    if network.prefixlen >= 17:
        return (str(network),)
    return tuple(str(s) for s in network.subnets(new_prefix=17))


def _announce_start(alloc: address_plan.Allocation) -> Month:
    """Blocks enter the routing table two months after allocation."""
    return Month(alloc.year, alloc.month).plus(2)


def _prefix2as_for(month: Month) -> Prefix2ASSnapshot:
    """Build the prefix2as snapshot for one month."""
    entries: list[OriginEntry] = []

    def add(cidr: str, asn: int) -> None:
        entries.append(OriginEntry(_network(cidr), (asn,)))

    # CANTV and the rest of the market announce covering aggregates.
    for alloc in address_plan.CANTV_ALLOCATIONS + address_plan.OTHER_VE_ALLOCATIONS:
        if _announce_start(alloc) <= month:
            add(alloc.prefix, alloc.asn)
    # CANTV also leaks a couple of more-specifics (exercises collapsing).
    if Month(2010, 1) <= month:
        add("200.44.32.0/19", AS_CANTV)
        add("186.88.0.0/16", AS_CANTV)

    for alloc in address_plan.TELEFONICA_ALLOCATIONS:
        if _announce_start(alloc) > month:
            continue
        if alloc.prefix in _TEF_DEAGGREGATED:
            withdrawn = (
                alloc.prefix in _TEF_WITHDRAWN
                and _TEF_WITHDRAW_MONTH <= month < _TEF_REANNOUNCE_MONTH
            )
            reannounced = (
                alloc.prefix in _TEF_WITHDRAWN and month >= _TEF_REANNOUNCE_MONTH
            )
            if withdrawn:
                continue
            if reannounced:
                add(alloc.prefix, AS_TELEFONICA)
            else:
                for subnet in _subnets_17(alloc.prefix):
                    add(subnet, AS_TELEFONICA)
        else:
            add(alloc.prefix, AS_TELEFONICA)
    # Telefonica's stable more-specifics inside 186.166.0.0/16 (Fig. 14 rows).
    if _announce_start(address_plan.TELEFONICA_ALLOCATIONS[11]) <= month:
        add("186.166.128.0/20", AS_TELEFONICA)
        add("186.166.144.0/20", AS_TELEFONICA)
    return Prefix2ASSnapshot(entries)


def synthesize_prefix2as_archive(
    start: Month = Month(2008, 1), end: Month = Month(2024, 1)
) -> Prefix2ASArchive:
    """Monthly prefix2as archive implementing the Fig. 2 / Fig. 14 scripts."""
    snapshots = {m: _prefix2as_for(m) for m in month_range(start, end)}
    get_registry().counter("bgp.prefix2as.rows_emitted").inc(
        sum(len(s) for s in snapshots.values())
    )
    return Prefix2ASArchive(snapshots)


def provider_name(asn: int) -> str:
    """Display name for a Fig. 9 provider ASN (falls back to ``ASxxxx``)."""
    for provider in CANTV_TRANSIT_INTERVALS:
        if provider.asn == asn:
            return provider.name
    return f"AS{asn}"
