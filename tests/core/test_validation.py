"""Tests for cross-dataset validation."""

import pytest

from repro.core.validation import validate_scenario


def test_clean_scenario_validates(scenario):
    assert validate_scenario(scenario) == []


@pytest.fixture()
def small_scenario(scenario):
    """A fresh scenario sharing the heavy datasets with the session one."""
    from repro.core import Scenario

    fresh = Scenario()
    for name in (
        "macro", "delegations", "prefix2as", "peeringdb", "cables", "ipv6",
        "root_deployment", "probes", "chaos_observations", "populations",
        "offnets", "orgmap", "site_survey", "asrel", "ndt_tests",
        "gpdns_traceroutes",
    ):
        fresh.__dict__[name] = getattr(scenario, name)
    return fresh


def test_detects_rogue_announcement(small_scenario):
    from repro.bgp.archive import Prefix2ASArchive
    from repro.bgp.prefix2as import Prefix2ASSnapshot

    month = small_scenario.prefix2as.months()[-1]
    rogue = Prefix2ASSnapshot(
        list(small_scenario.prefix2as[month].entries)
        + list(Prefix2ASSnapshot.from_pairs([("8.8.8.0/24", 8048)]).entries)
    )
    small_scenario.__dict__["prefix2as"] = Prefix2ASArchive({month: rogue})
    issues = validate_scenario(small_scenario)
    assert any(i.check == "announced_within_allocations" for i in issues)
    assert any("8.8.8.0/24" in i.detail for i in issues)


def test_detects_dangling_netfac(small_scenario):
    from repro.peeringdb.archive import PeeringDBArchive
    from repro.peeringdb.schema import NetFac, PeeringDBSnapshot

    latest = small_scenario.peeringdb.latest()
    broken = PeeringDBSnapshot(
        orgs=latest.orgs,
        facilities=latest.facilities,
        networks=latest.networks,
        exchanges=latest.exchanges,
        netfacs=list(latest.netfacs) + [NetFac(net_id=424242, fac_id=9001)],
        netixlans=latest.netixlans,
    )
    month = small_scenario.peeringdb.months()[-1]
    small_scenario.__dict__["peeringdb"] = PeeringDBArchive({month: broken})
    issues = validate_scenario(small_scenario)
    assert any(i.check == "facility_members_registered" for i in issues)


def test_detects_garbled_chaos(small_scenario):
    from repro.rootdns.analysis import ChaosObservation
    from repro.timeseries import Month

    garbled = [
        ChaosObservation(Month(2020, 1), 1, "VE", "F", "???not-a-site???")
        for _ in range(100)
    ]
    small_scenario.__dict__["chaos_observations"] = garbled
    issues = validate_scenario(small_scenario)
    assert any(i.check == "chaos_answers_parse" for i in issues)


def test_detects_orphan_offnet(small_scenario):
    from repro.offnets.records import OffnetArchive, OffnetRecord

    archive = OffnetArchive(
        [*small_scenario.offnets, OffnetRecord(2020, "google", 999_999)]
    )
    small_scenario.__dict__["offnets"] = archive
    issues = validate_scenario(small_scenario)
    assert any(i.check == "offnet_asns_have_population" for i in issues)


def test_detects_inactive_probe_traceroute(small_scenario):
    from repro.atlas.traceroute import Hop, TracerouteResult

    ghost = TracerouteResult(
        probe_id=999_999, msm_id=1, timestamp=1_700_000_000, dst_addr="8.8.8.8",
        hops=(Hop(1, (("8.8.8.8", 10.0),)),),
    )
    small_scenario.__dict__["gpdns_traceroutes"] = [ghost] * 50
    issues = validate_scenario(small_scenario)
    assert any(i.check == "probe_months_within_campaigns" for i in issues)
