"""The reliability metric families land in the repro.obs/1 artifact.

The export layer is name-agnostic, so these tests drive the *real* code
paths (lenient parse, fault plan, degradation) and assert
the resulting instruments serialise into the artifact under their
documented names — the contract ``--metrics-json`` consumers and the CI
chaos job rely on.
"""

import pytest

from repro.core import Scenario
from repro.faults import FaultPlan
from repro.ingest import ErrorBudget, ErrorBudgetExceeded, Quarantine
from repro.obs import get_registry, metrics_from_json, metrics_to_json
from repro.obs.naming import validate_name

SMALL = {"ndt_tests_per_month": 1, "gpdns_samples_per_month": 1}

#: Every instrument name docs/OBSERVABILITY.md adds for reliability.
RELIABILITY_COUNTERS = (
    "faults.injected",
    "ingest.budget_exceeded",
    "scenario.dataset.degraded",
    "exhibit.degraded",
    "cache.corrupt",
)


@pytest.mark.parametrize("name", RELIABILITY_COUNTERS)
def test_reliability_names_satisfy_the_grammar(name):
    assert validate_name(name) == name


def test_ingest_retry_and_degradation_metrics_reach_the_artifact():
    # Degraded build: scenario.dataset.degraded + faults.injected.
    scenario = Scenario(
        strict=False, fault_plan=FaultPlan.single("cables", "truncate"), **SMALL
    )
    scenario.materialise("cables")
    # Lenient parse over garbage: ingest.quarantined.* + budget_exceeded.
    quarantine = Quarantine("bgp.asrel", budget=ErrorBudget(0.05, grace=0))
    quarantine.admit(1, "junk", "bad line")
    with pytest.raises(ErrorBudgetExceeded):
        quarantine.check(accepted=1)

    doc = metrics_from_json(metrics_to_json())
    counters = doc["metrics"]["counters"]
    assert counters["faults.injected"] == 1  # the build runs once
    assert counters["scenario.dataset.degraded"] == 1
    assert counters["ingest.quarantined.bgp.asrel"] == 1
    assert counters["ingest.budget_exceeded"] == 1
    assert not any(name.startswith("retry.") for name in counters)


def test_stats_command_snapshot_includes_reliability_families(capsys):
    # `repro stats` prints render_metrics() of the same registry the
    # artifact snapshots; a degraded run must surface the new families.
    from repro.obs import render_metrics

    scenario = Scenario(
        strict=False, fault_plan=FaultPlan.single("cables", "truncate"), **SMALL
    )
    scenario.materialise("cables")
    text = render_metrics()
    assert "scenario.dataset.degraded" in text
    assert "faults.injected" in text
