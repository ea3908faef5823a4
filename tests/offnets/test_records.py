"""Tests for off-net records and the org map."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.offnets import HYPERGIANTS, OffnetArchive, OffnetRecord, OrgMap


def test_record_validates_hypergiant():
    with pytest.raises(ValueError):
        OffnetRecord(2020, "notareal", 8048)


def _archive():
    return OffnetArchive(
        [
            OffnetRecord(2013, "google", 8048),
            OffnetRecord(2013, "google", 21826),
            OffnetRecord(2014, "google", 8048),
            OffnetRecord(2021, "netflix", 8048),
        ]
    )


def test_hosting_asns():
    archive = _archive()
    assert archive.hosting_asns("google", 2013) == {8048, 21826}
    assert archive.hosting_asns("google", 2014) == {8048}
    assert archive.hosting_asns("netflix", 2013) == set()


def test_years_and_hypergiants():
    archive = _archive()
    assert archive.years() == [2013, 2014, 2021]
    assert archive.hypergiants_seen() == ["google", "netflix"]


def test_duplicates_idempotent():
    archive = _archive()
    before = len(archive)
    archive = OffnetArchive([*archive, OffnetRecord(2013, "google", 8048)])
    assert len(archive) == before


def test_csv_roundtrip():
    archive = _archive()
    again = OffnetArchive.from_csv(archive.to_csv())
    assert list(again) == list(archive)


def test_save_load(tmp_path):
    archive = _archive()
    path = tmp_path / "offnets.csv"
    archive.save(path)
    assert len(OffnetArchive.load(path)) == len(archive)


def test_orgmap_identity_default():
    orgmap = OrgMap()
    assert orgmap.org_of(8048) == "org-8048"
    assert orgmap.siblings_of(8048) == {8048}


def test_orgmap_sibling_groups():
    orgmap = OrgMap([(8048, 27889)])
    assert orgmap.org_of(8048) == orgmap.org_of(27889)
    assert orgmap.siblings_of(27889) == {8048, 27889}
    assert orgmap.expand([27889, 11562]) == {8048, 27889, 11562}


def test_orgmap_rejects_conflicts():
    with pytest.raises(ValueError):
        OrgMap([(1, 2), (2, 3)])


#: sha256 of the default scenario's off-net CSV, taken from the
#: record-set archive the columns replaced.
OFFNETS_CSV_SHA256 = "9a2d06ff8f7b97a3c8d2132cb98012bd1d28e23a8b6db79ad85db4a916f982b2"


def test_offnets_wire_bytes_are_pinned(scenario):
    csv_bytes = scenario.offnets.to_csv().encode()
    assert hashlib.sha256(csv_bytes).hexdigest() == OFFNETS_CSV_SHA256


_records = st.lists(
    st.builds(
        OffnetRecord,
        year=st.integers(min_value=2010, max_value=2024),
        hypergiant=st.sampled_from(HYPERGIANTS),
        asn=st.one_of(
            st.sampled_from([8048, 6306, 4_294_967_294]),
            st.integers(min_value=1, max_value=4_294_967_294),
        ),
    ),
    max_size=60,
)


@given(_records, st.sampled_from(HYPERGIANTS), st.integers(2010, 2024))
def test_queries_equal_set_comprehension_references(records, hypergiant, year):
    archive = OffnetArchive(records)
    assert archive.hosting_asns(hypergiant, year) == {
        r.asn for r in records if r.hypergiant == hypergiant and r.year == year
    }
    assert archive.years() == sorted({r.year for r in records})
    seen = {r.hypergiant for r in records}
    assert archive.hypergiants_seen() == [hg for hg in HYPERGIANTS if hg in seen]
    assert len(archive) == len(set(records))
    assert list(archive) == sorted(
        set(records), key=lambda r: (r.year, r.hypergiant, r.asn)
    )
