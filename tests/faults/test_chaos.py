"""The chaos harness: deterministic reports, verdicts, drill coverage."""

import json

import pytest

from repro.faults import run_chaos

#: Small world keeps each full chaos run cheap.
SMALL = {"ndt_tests_per_month": 1, "gpdns_samples_per_month": 1}


@pytest.fixture(scope="module")
def report():
    return run_chaos(seed=42, **SMALL)


def test_default_plan_degrades_but_completes(report):
    assert report.verdict == "degraded-but-complete"
    available, total = report.coverage
    assert total == 16
    # The default plan targets three datasets; all three must degrade
    # (every default injector is fatal to a pickle round-trip).
    assert available == 13
    degraded = {d["name"] for d in report.datasets if d["status"] == "degraded"}
    assert degraded == {"asrel", "cables", "peeringdb"}
    # One gate per fault: a failed build is not attempted again.
    assert len(report.injections) == 3


def test_report_is_deterministic_for_a_seed(report):
    again = run_chaos(seed=42, **SMALL)
    assert again.to_json() == report.to_json()


def test_report_schema_and_render(report):
    doc = json.loads(report.to_json())
    assert doc["schema"] == "repro.chaos/1"
    assert doc["seed"] == 42
    assert doc["verdict"] == "degraded-but-complete"
    assert doc["injections"]
    rendered = report.render()
    assert "CHAOS: seed=42 verdict=degraded-but-complete" in rendered
    assert "ingestion drill" in rendered


def test_exhibits_still_render_under_faults(report):
    assert report.exhibits["total"] == 23
    assert report.exhibits["ok"] + report.exhibits["degraded"] == 23
    assert report.exhibits["ok"] > 0
    assert len(report.exhibits["affected"]) == report.exhibits["degraded"]


def test_drill_quarantines_without_breaking_budget(report):
    by_component = {step["component"]: step for step in report.drill}
    parsed = by_component["registry.delegation"]
    assert parsed["status"] == "ok"
    assert parsed["quarantined"] > 0
    assert parsed["accepted"] > 0
    # Components whose source dataset degraded are skipped, not failed.
    assert by_component["telegeography.cables"]["status"] == "skipped"


def test_clean_plan_is_complete():
    clean = run_chaos(seed=0, specs=[], **SMALL)
    assert clean.verdict == "complete"
    assert clean.coverage == (16, 16)
    assert clean.injections == []


def test_strict_mode_propagates_the_injected_failure():
    with pytest.raises(Exception):
        run_chaos(seed=0, specs=["cables:truncate"], strict=True, **SMALL)


def test_artifact_embeds_deterministic_metrics(report):
    doc = json.loads(report.to_json())
    metrics = doc["metrics"]
    # the drill always quarantines, so ingest counters must be present
    assert any(name.startswith("ingest.") for name in metrics)
    assert all(isinstance(value, int) and value > 0 for value in metrics.values())
    # only the deterministic counter families are embedded
    allowed = ("ingest.", "faults.", "scenario.dataset.")
    assert all(name.startswith(allowed) for name in metrics)


def test_metrics_delta_is_stable_across_inprocess_runs(report):
    # a second run in the same process starts from non-zero registry
    # counters; the delta must match the first run's exactly (CI cmp's
    # two artifacts produced by consecutive invocations)
    again = run_chaos(seed=42, **SMALL)
    assert again.metrics == report.metrics
