"""Tests for the Scenario container."""

from functools import cached_property

from repro.core import Scenario
from repro.core.scenario import dataset_names
from repro.obs import get_registry


def test_properties_cached(scenario):
    assert scenario.macro is scenario.macro
    assert scenario.peeringdb is scenario.peeringdb
    assert scenario.populations is scenario.populations


def test_every_dataset_materialises(scenario):
    assert len(scenario.macro) > 0
    assert len(scenario.delegations.records) > 0
    assert len(scenario.prefix2as) > 0
    assert len(scenario.peeringdb) > 0
    assert len(scenario.cables) == 54
    assert len(scenario.ipv6) > 0
    assert len(scenario.root_deployment) > 0
    assert len(scenario.probes) == 450
    assert len(scenario.chaos_observations) > 100_000
    assert len(scenario.populations) > 0
    assert len(scenario.offnets) > 0
    assert len(scenario.orgmap) > 0
    assert len(scenario.site_survey) == 900
    assert len(scenario.asrel) == 312
    assert len(scenario.ndt_tests) > 100_000
    assert len(scenario.gpdns_traceroutes) > 50_000


def test_scenarios_share_nothing():
    a, b = Scenario(), Scenario()
    assert a.macro is not b.macro


def test_parameters_respected():
    small = Scenario(ndt_tests_per_month=1)
    default = Scenario(ndt_tests_per_month=2)
    # Only compare one cheap slice: counts scale with the parameter.
    assert len(small.ndt_tests) * 2 == len(default.ndt_tests)


def test_dataset_names_cover_every_cached_property():
    names = dataset_names()
    assert len(names) == 16
    assert names[0] == "macro"
    for name in names:
        assert isinstance(vars(Scenario)[name], cached_property)


def test_no_vestigial_cache_field():
    # Caching goes through cached_property alone; the old `_cache` dict is
    # gone, so equal-parameter scenarios compare equal again.
    assert "_cache" not in Scenario.__dataclass_fields__
    assert Scenario() == Scenario()
    assert Scenario() != Scenario(seed=1)


def test_builds_record_spans_and_counters():
    scenario = Scenario(ndt_tests_per_month=1)
    scenario.macro
    scenario.delegations
    scenario.macro  # cached: must not re-count
    registry = get_registry()
    assert registry.counter("scenario.dataset.built").value == 2
    assert registry.timer("scenario.build.macro").count == 1
    assert registry.timer("scenario.build.delegations").count == 1


def test_dataset_properties_never_write_the_instance_dict():
    # Every read reaches the descriptor (that is how derive records it),
    # yet a value stays one object and an injected value still shadows.
    scenario = Scenario(ndt_tests_per_month=1)
    assert scenario.macro is scenario.macro
    assert "macro" not in vars(scenario)
    assert not hasattr(type(vars(Scenario)["macro"]), "__set__")
    injected = object()
    scenario.__dict__["cables"] = injected
    assert scenario.cables is injected


def test_derive_records_the_reads_of_a_nested_derive():
    scenario = Scenario(ndt_tests_per_month=1)

    def outer():
        scenario.macro
        return scenario.derive("inner", lambda: scenario.cables)

    assert scenario.derive("outer", outer) is scenario.cables
    # A memo entry is (value, the names of the datasets it read).
    assert scenario._derived["inner"][1] == {"cables"}
    assert scenario._derived["outer"][1] == {"macro", "cables"}


def test_a_memo_hit_inside_a_derive_adds_the_inner_reads():
    scenario = Scenario(ndt_tests_per_month=1)
    scenario.derive("inner", lambda: (scenario.ipv6, scenario.macro))
    ran = []

    def inner_again():
        ran.append(1)
        return None

    scenario.derive("outer", lambda: scenario.derive("inner", inner_again))
    assert ran == []  # a memo hit: the inner thunk did not run again
    assert scenario._derived["outer"][1] == {"ipv6", "macro"}


def test_derive_reads_exclude_what_a_dataset_builder_reads():
    # offnets is built from populations, but the thunk read offnets only.
    scenario = Scenario(ndt_tests_per_month=1)
    scenario.derive("offnets", lambda: scenario.offnets)
    assert scenario._derived["offnets"][1] == {"offnets"}


def test_a_raising_inner_derive_still_reports_its_reads():
    # The outer value (a degradation placeholder, say) must not look as
    # if it read nothing when the inner thunk failed after reading.
    scenario = Scenario(ndt_tests_per_month=1)

    def failing():
        scenario.macro
        raise RuntimeError("degraded")

    def outer():
        try:
            return scenario.derive("inner", failing)
        except RuntimeError:
            return "placeholder"

    assert scenario.derive("outer", outer) == "placeholder"
    assert scenario._derived["outer"][1] == {"macro"}
    assert "inner" not in scenario._derived
