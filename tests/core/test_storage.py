"""Round-trip tests for scenario persistence."""

import pytest

from repro.core import Scenario
from repro.core.storage import ScenarioStore, StoredScenario
from repro.timeseries import Month


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A small scenario saved to disk and loaded back.

    The heavy longitudinal datasets are shrunk by pre-seeding the lazy
    caches with narrow windows, so the round-trip stays fast.
    """
    from repro.atlas.synthetic import (
        synthesize_chaos_columns,
        synthesize_gpdns_columns,
        synthesize_probe_registry,
    )
    from repro.bgp.synthetic import (
        synthesize_asrel_archive,
        synthesize_prefix2as_archive,
    )
    from repro.mlab.synthetic import NDTLoadModel, synthesize_ndt_columns
    from repro.peeringdb.synthetic import synthesize_peeringdb_archive

    scenario = Scenario()
    window = (Month(2023, 1), Month(2023, 6))
    scenario.__dict__["asrel"] = synthesize_asrel_archive(*window)
    scenario.__dict__["prefix2as"] = synthesize_prefix2as_archive(*window)
    scenario.__dict__["peeringdb"] = synthesize_peeringdb_archive(*window)
    registry = synthesize_probe_registry()
    scenario.__dict__["probes"] = registry
    scenario.__dict__["gpdns_traceroutes"] = list(
        synthesize_gpdns_columns(registry, start=window[0], end=window[1])
    )
    scenario.__dict__["chaos_observations"] = list(
        synthesize_chaos_columns(
            registry, scenario.root_deployment, start=window[0], end=window[1]
        )
    )
    scenario.__dict__["ndt_tests"] = list(
        synthesize_ndt_columns(
            NDTLoadModel(tests_per_month=3, start=window[0], end=window[1])
        )
    )

    root = tmp_path_factory.mktemp("store")
    ScenarioStore(root).save(scenario)
    return scenario, ScenarioStore(root).load()


def test_loaded_is_scenario_subclass(stored):
    _original, loaded = stored
    assert isinstance(loaded, StoredScenario)
    assert isinstance(loaded, Scenario)


def test_macro_roundtrip(stored):
    original, loaded = stored
    assert loaded.macro.to_csv() == original.macro.to_csv()


def test_populations_roundtrip(stored):
    original, loaded = stored
    assert loaded.populations.country_users("VE") == original.populations.country_users("VE")


def test_cables_roundtrip(stored):
    original, loaded = stored
    assert len(loaded.cables) == len(original.cables)
    assert loaded.cables.count_in_year("VE", 2024) == 5


def test_archives_roundtrip(stored):
    original, loaded = stored
    assert loaded.asrel.months() == original.asrel.months()
    month = Month(2023, 3)
    assert loaded.asrel[month].upstreams_of(8048) == original.asrel[month].upstreams_of(8048)
    assert loaded.prefix2as[month].announced_addresses(8048) == original.prefix2as[
        month
    ].announced_addresses(8048)
    assert (
        loaded.peeringdb[month].facility_count_by_country()
        == original.peeringdb[month].facility_count_by_country()
    )


def test_probes_and_deployment_roundtrip(stored):
    original, loaded = stored
    assert len(loaded.probes) == len(original.probes)
    assert len(loaded.root_deployment) == len(original.root_deployment)


def test_measurement_streams_roundtrip(stored):
    original, loaded = stored
    assert len(loaded.ndt_tests) == len(original.ndt_tests)
    assert len(loaded.gpdns_traceroutes) == len(original.gpdns_traceroutes)
    assert len(loaded.chaos_observations) == len(original.chaos_observations)
    assert loaded.chaos_observations[0] == original.chaos_observations[0]


def test_analyses_run_on_stored_data(stored):
    _original, loaded = stored
    from repro.mlab.aggregate import median_download_panel
    from repro.rootdns.analysis import replica_count_panel

    panel = median_download_panel(loaded.ndt_tests)
    assert "VE" in panel
    replicas = replica_count_panel(loaded.chaos_observations)
    assert replicas["BR"][Month(2023, 1)] > 30


def test_offnets_and_survey_roundtrip(stored):
    original, loaded = stored
    assert len(loaded.offnets) == len(original.offnets)
    assert loaded.site_survey.to_csv() == original.site_survey.to_csv()
    assert loaded.orgmap.siblings_of(8048) == {8048, 27889}
