"""Tests for the synthetic probe fleet and campaigns."""

import pytest

from repro.atlas.synthetic import synthesize_chaos_columns, synthesize_gpdns_columns
from repro.atlas.rttmodel import GPDNS_MSM_ID
from repro.timeseries import Month


@pytest.fixture(scope="module")
def registry(scenario):
    return scenario.probes


def test_fleet_size_calibration(registry):
    panel = registry.count_panel([Month(2016, 1), Month(2024, 1)])
    total = panel.regional_sum()
    assert total[Month(2016, 1)] == pytest.approx(300, abs=2)
    assert total[Month(2024, 1)] == 450.0
    assert panel["VE"].values() == [10.0, 30.0]


def test_ve_sixth_by_probe_count(registry):
    panel = registry.count_panel([Month(2024, 1)])
    assert panel.rank_in_month("VE", Month(2024, 1)) == 6


def test_cantv_hosts_eight_probes(registry):
    cantv = [p for p in registry.active(Month(2024, 1), "VE") if p.asn == 8048]
    assert len(cantv) == 8


def test_probe_ids_unique(registry):
    ids = [p.probe_id for p in registry.probes]
    assert len(ids) == len(set(ids))


def test_gpdns_campaign_structure(registry):
    results = list(
        synthesize_gpdns_columns(
            registry, start=Month(2023, 12), end=Month(2023, 12), countries=["VE"]
        )
    )
    assert len(results) == 30 * 2  # 30 probes, 2 samples
    for r in results:
        assert r.msm_id == GPDNS_MSM_ID
        assert r.dst_addr == "8.8.8.8"
        assert r.reached_destination()
        assert r.month == Month(2023, 12)


def test_gpdns_min_is_first_sample(registry):
    from repro.atlas.traceroute import min_rtt_per_probe_month

    results = list(
        synthesize_gpdns_columns(
            registry, start=Month(2023, 12), end=Month(2023, 12),
            samples_per_month=3, countries=["VE"],
        )
    )
    minima = min_rtt_per_probe_month(results)
    assert len(minima) == 30


def test_chaos_campaign_one_answer_per_probe_letter(registry, scenario):
    results = list(
        synthesize_chaos_columns(
            registry, scenario.root_deployment,
            start=Month(2020, 1), end=Month(2020, 1), countries=["VE"],
        )
    )
    # 17 active VE probes in 2020-01, 13 letters each.
    probes = len(registry.active(Month(2020, 1), "VE"))
    assert len(results) == probes * 13


def test_chaos_results_json_roundtrip(registry, scenario):
    from repro.atlas import DNSBuiltinResult

    observations = list(
        synthesize_chaos_columns(
            registry, scenario.root_deployment,
            start=Month(2020, 1), end=Month(2020, 1), countries=["VE"],
            letters=["F"],
        )
    )
    for obs in observations[:5]:
        result = DNSBuiltinResult(
            probe_id=obs.probe_id,
            probe_country=obs.probe_country,
            root_letter=obs.letter,
            answer=obs.answer,
            month=obs.month,
        )
        again = DNSBuiltinResult.from_json(result.to_json())
        assert again == result
        assert again.to_observation() == obs


def test_ve_chaos_domestic_then_foreign(registry, scenario):
    def answers(month):
        return {
            obs.letter: obs.answer
            for obs in synthesize_chaos_columns(
                registry, scenario.root_deployment,
                start=month, end=month, countries=["VE"],
            )
            if obs.probe_id == 1000
        }

    early = answers(Month(2017, 1))
    assert early["F"].startswith("ccs")  # domestic Caracas F site
    late = answers(Month(2023, 6))
    assert not late["F"].startswith("ccs")
