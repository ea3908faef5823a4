"""The column-backed BGP archives: wire bytes and the array queries.

The archives answer the Fig. 2, 8, 9 and 14 queries on their arrays;
each property here checks one of them against a reference computed the
object way, on the snapshots ``archive[month]`` rebuilds.
"""

import hashlib
import ipaddress

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import ASRelArchive, Prefix2ASArchive, Prefix2ASSnapshot
from repro.bgp.asrel import P2C, P2P, ASRelationshipSnapshot, Relationship
from repro.bgp.prefix2as import OriginEntry
from repro.timeseries import Month

#: sha256 of the concatenated wire text of every default-scenario
#: snapshot, taken from the object-graph archives the columns replaced.
PREFIX2AS_TEXT_SHA256 = (
    "8620947a57a84d32f656c76197f1f5bc46fcc916c85b9be58ae1254a8844d7ea"
)
ASREL_TEXT_SHA256 = "3d1723a2a9243bac5f3f29ea5b3df3a2d67bddb4f4255777a6a55a3a43ef3cf0"


def _text_digest(archive) -> str:
    text = "".join(snapshot.to_text() for _month, snapshot in archive.items())
    return hashlib.sha256(text.encode()).hexdigest()


def test_prefix2as_wire_bytes_are_pinned(scenario):
    assert _text_digest(scenario.prefix2as) == PREFIX2AS_TEXT_SHA256


def test_asrel_wire_bytes_are_pinned(scenario):
    assert _text_digest(scenario.asrel) == ASREL_TEXT_SHA256


_asn = st.integers(min_value=1, max_value=4_294_967_294)
_MONTHS = [Month(2016, 5), Month(2016, 6), Month(2016, 8)]


def _network(address: int, prefixlen: int) -> ipaddress.IPv4Network:
    mask = ~((1 << (32 - prefixlen)) - 1) & 0xFFFFFFFF
    return ipaddress.IPv4Network((address & mask, prefixlen))


#: Prefixes packed into 10.0.0.0/10: overlapping, nested and adjacent
#: ones are the common case, plus anywhere-in-IPv4 prefixes of any length.
_prefixes = st.one_of(
    st.builds(
        lambda slot, prefixlen: _network(0x0A000000 + (slot << 16), prefixlen),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=10, max_value=22),
    ),
    st.builds(
        _network,
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=32),
    ),
)


@st.composite
def _prefix2as_world(draw):
    """(archive, snapshots, asn): entries multi-origin, some with *asn*."""
    asn = draw(_asn)
    origin = st.one_of(st.just(asn), _asn)
    entries = st.builds(
        OriginEntry,
        network=_prefixes,
        origins=st.lists(origin, min_size=1, max_size=3).map(tuple),
    )
    snapshots = {
        month: Prefix2ASSnapshot(draw(st.lists(entries, max_size=12)))
        for month in draw(st.lists(st.sampled_from(_MONTHS), unique=True))
    }
    return Prefix2ASArchive(snapshots), snapshots, asn


@settings(max_examples=200)
@given(_prefix2as_world())
def test_announced_series_equals_collapse_addresses(world):
    archive, snapshots, asn = world
    expected = {
        month: float(
            sum(
                net.num_addresses
                for net in ipaddress.collapse_addresses(snapshot.prefixes_of(asn))
            )
        )
        for month, snapshot in snapshots.items()
    }
    assert dict(archive.announced_series(asn).items()) == expected


@given(_prefix2as_world())
def test_visibility_matrix_equals_snapshot_membership(world):
    archive, snapshots, asn = world
    ever = {net for s in snapshots.values() for net in s.prefixes_of(asn)}
    expected = {
        str(net): {m for m, s in snapshots.items() if net in s.prefixes_of(asn)}
        for net in ever
    }
    assert archive.visibility_matrix(asn) == expected
    some = sorted(str(net) for net in ever)[:2] + ["192.0.2.0/24"]
    explicit = archive.visibility_matrix(asn, prefixes=some)
    assert explicit == {p: expected.get(p, set()) for p in some}


@given(_prefix2as_world())
def test_prefix2as_snapshots_round_trip_through_the_columns(world):
    archive, snapshots, _ = world
    assert archive.months() == sorted(snapshots)
    for month, snapshot in snapshots.items():
        assert archive[month].entries == snapshot.entries


_small_asn = st.sampled_from([8048, 701, 4_294_967_294, 262_589])


@st.composite
def _asrel_world(draw):
    relationship = st.builds(
        Relationship, a=_small_asn, b=_small_asn, kind=st.sampled_from([P2C, P2P])
    )
    months = draw(st.lists(st.sampled_from(_MONTHS), unique=True))
    snapshots = {
        month: ASRelationshipSnapshot(draw(st.lists(relationship, max_size=10)))
        for month in months
    }
    return ASRelArchive(snapshots), snapshots


@given(_asrel_world(), _small_asn)
def test_transit_queries_equal_snapshot_references(world, asn):
    archive, snapshots = world
    ordered = sorted(snapshots.items())
    assert archive.upstream_count_series(asn).values() == [
        float(len(s.upstreams_of(asn))) for _m, s in ordered
    ]
    assert archive.downstream_count_series(asn).values() == [
        float(len(s.downstreams_of(asn))) for _m, s in ordered
    ]
    matrix = {}
    for month, snapshot in ordered:
        for provider in snapshot.upstreams_of(asn):
            matrix.setdefault(provider, set()).add(month)
    assert archive.transit_matrix(asn) == matrix
    assert archive.providers_serving(asn, min_months=2) == sorted(
        p for p, months in matrix.items() if len(months) >= 2
    )
    for provider in matrix:
        served = [provider in s.upstreams_of(asn) for _m, s in ordered]
        runs, start = [], None
        for i, on in enumerate(served + [False]):
            if on and start is None:
                start = i
            elif not on and start is not None:
                runs.append((ordered[start][0], ordered[i - 1][0]))
                start = None
        assert archive.provider_intervals(asn, provider) == runs


def test_empty_snapshots_keep_their_months():
    archive = ASRelArchive({Month(2013, 1): ASRelationshipSnapshot()})
    assert len(archive) == 1
    assert Month(2013, 1) in archive
    assert len(archive[Month(2013, 1)]) == 0
    assert archive.upstream_count_series(8048).values() == [0.0]
