"""Graceful degradation: sentinels, cascades, coverage annotations.

Uses :class:`~repro.faults.plan.FaultPlan` as the failure source so the
degradation machinery is exercised exactly the way ``repro chaos`` (and
a genuinely broken generator) would exercise it.
"""

import pytest

from repro.core import DatasetDegradedError, DegradedDataset, Scenario, run_exhibit
from repro.core.report import (
    coverage_section,
    is_degraded,
    render_report,
    run_all,
)
from repro.core.scorecard import build_scorecard
from repro.faults import FaultPlan
from repro.obs import CapturedLogs, configure_logging, get_registry

SMALL = {"ndt_tests_per_month": 1, "gpdns_samples_per_month": 1}


def _degraded_scenario(dataset="cables", **params):
    return Scenario(
        strict=False,
        fault_plan=FaultPlan.single(dataset, "truncate", seed=42),
        **{**SMALL, **params},
    )


# -- the sentinel and access semantics ----------------------------------------


def test_strict_default_propagates_the_build_error():
    broken = Scenario(fault_plan=FaultPlan.single("cables", "truncate", seed=42), **SMALL)
    assert broken.strict  # library default: fail fast
    with pytest.raises(Exception) as excinfo:
        broken.cables
    assert not isinstance(excinfo.value, DatasetDegradedError)


def test_strict_build_all_propagates_the_build_error(monkeypatch):
    def boom():
        raise RuntimeError("generator exploded")

    monkeypatch.setattr("repro.core.scenario.synthesize_macro", boom)
    with pytest.raises(RuntimeError, match="generator exploded"):
        Scenario(**SMALL).build_all()


def test_lenient_access_raises_dataset_degraded():
    scenario = _degraded_scenario()
    with pytest.raises(DatasetDegradedError) as excinfo:
        scenario.cables
    assert excinfo.value.name == "cables"
    assert "truncate" in excinfo.value.reason
    assert get_registry().counter("scenario.dataset.degraded").value == 1


def test_materialise_returns_the_sentinel():
    scenario = _degraded_scenario()
    value = scenario.materialise("cables")
    assert isinstance(value, DegradedDataset)
    assert value.name == "cables"
    assert value.render() == f"cables: {value.reason}"
    # Healthy datasets come back as themselves.
    assert not isinstance(scenario.materialise("macro"), DegradedDataset)


def test_degraded_and_coverage():
    scenario = _degraded_scenario()
    scenario.build_all()
    assert [d.name for d in scenario.degraded()] == ["cables"]
    assert scenario.coverage() == (15, 16)


def test_healthy_scenario_has_full_coverage(scenario):
    assert scenario.degraded() == []
    total = scenario.coverage()[1]
    assert scenario.coverage() == (total, total)


def test_degradation_is_memoised_not_retried_per_access():
    scenario = _degraded_scenario()
    for _ in range(3):
        with pytest.raises(DatasetDegradedError):
            scenario.cables
    # One degradation event despite three accesses.
    assert get_registry().counter("scenario.dataset.degraded").value == 1


def test_failed_build_runs_once(monkeypatch):
    # Builds are seeded, so a second attempt would reproduce the first
    # attempt's bytes and fail the same way: a failure degrades at once.
    from repro.core import scenario as scenario_module

    calls = []
    generate = scenario_module.synthesize_cable_map

    def counted():
        calls.append(1)
        return generate()

    monkeypatch.setattr(scenario_module, "synthesize_cable_map", counted)
    scenario = _degraded_scenario()
    assert isinstance(scenario.materialise("cables"), DegradedDataset)
    assert len(calls) == 1
    assert get_registry().counter("faults.injected").value == 1


def test_dependency_degradation_cascades_without_retry():
    # offnets depends on populations: degrading the parent must degrade
    # the child with a reason naming the dependency.
    scenario = _degraded_scenario(dataset="populations")
    value = scenario.materialise("offnets")
    assert isinstance(value, DegradedDataset)
    assert "dependency 'populations' degraded" in value.reason
    assert get_registry().counter("scenario.dataset.degraded").value == 2


@pytest.fixture
def degraded_events():
    """The ``scenario.dataset.degraded`` records logged while active."""
    captured = CapturedLogs()
    configure_logging(format="json", stream=captured)  # reset after each test

    def records():
        return [
            r for r in captured.records() if r.get("event") == "scenario.dataset.degraded"
        ]

    return records


def test_a_lenient_failure_logs_one_warning(degraded_events):
    scenario = _degraded_scenario()
    for _ in range(2):
        value = scenario.materialise("cables")
    (record,) = degraded_events()
    assert record["level"] == "warning"
    assert record["logger"] == "repro.core.scenario"
    assert (record["dataset"], record["reason"]) == ("cables", value.reason)


def test_a_cascade_logs_the_dependency_and_the_dependent(degraded_events):
    scenario = _degraded_scenario(dataset="populations")
    value = scenario.materialise("offnets")
    parent, child = degraded_events()
    assert parent["dataset"] == "populations"
    assert (child["dataset"], child["reason"]) == ("offnets", value.reason)


def test_a_strict_failure_raises_and_logs_nothing(degraded_events):
    broken = Scenario(fault_plan=FaultPlan.single("cables", "truncate", seed=42), **SMALL)
    with pytest.raises(Exception):
        broken.cables
    assert degraded_events() == []


# -- exhibits and report -------------------------------------------------------


def test_exhibit_over_degraded_dataset_renders_placeholder():
    scenario = _degraded_scenario()
    exhibit = run_exhibit(scenario, "fig04")  # submarine-cable exhibit
    assert is_degraded(exhibit)
    assert exhibit.rows == []
    assert "degraded: dataset 'cables'" in exhibit.notes
    assert exhibit.render()  # placeholder still renders text
    assert get_registry().counter("exhibit.degraded").value == 1


def test_report_annotates_coverage_under_degradation():
    scenario = _degraded_scenario()
    report = render_report(scenario)
    assert "COVERAGE: 15/16 datasets available" in report
    assert "degraded cables:" in report
    assert "exhibits affected:" in report


def test_coverage_section_is_empty_when_healthy(scenario):
    exhibits = run_all(scenario)
    assert coverage_section(scenario, exhibits) == ""
    assert not any(is_degraded(e) for e in exhibits)


def test_report_byte_identical_with_a_noop_fault_plan(scenario):
    # The acceptance invariant: wiring the fault machinery in must not
    # change a single healthy byte.  An *empty* plan gates nothing.
    baseline = render_report(scenario)
    wired = Scenario(strict=False, fault_plan=FaultPlan(seed=42, specs=[]))
    assert render_report(wired) == baseline


# -- scorecard -----------------------------------------------------------------


def test_scorecard_marks_degraded_panels():
    scenario = _degraded_scenario()
    scorecard = build_scorecard(scenario, "VE")
    degraded_rows = [r for r in scorecard.rows if r.degraded]
    assert [r.panel for r in degraded_rows] == ["submarine cables"]
    assert scorecard.degraded_panels == 1
    rendered = scorecard.render()
    assert "unavailable (degraded: dataset 'cables')" in rendered
    assert f"({scorecard.degraded_panels} degraded)" in rendered
    doc = scorecard.to_dict()
    assert doc["degraded"] == scorecard.degraded_panels


def test_healthy_scorecard_omits_degraded_keys(scenario):
    scorecard = build_scorecard(scenario, "VE")
    assert scorecard.degraded_panels == 0
    assert "degraded" not in scorecard.to_dict()
    assert all("degraded" not in row.to_dict() for row in scorecard.rows)
