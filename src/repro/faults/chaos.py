"""The ``repro chaos`` harness: run the pipeline under injected faults.

One :func:`run_chaos` call exercises every resilience layer at once:

1. A lenient :class:`~repro.core.scenario.Scenario` is built with a
   :class:`~repro.faults.plan.FaultPlan` gating every dataset, so the
   targeted datasets degrade instead of the build crashing.
2. Every exhibit runs; those whose datasets degraded render as
   placeholders and are counted, the rest render normally.
3. An *ingestion drill* serialises the surviving datasets to their wire
   formats, damages the records deterministically, and re-parses them
   leniently — proving per-record quarantine and the error budget hold.

Everything is derived from the plan seed — no wall clock, no global RNG —
so the same seed and plan produce an identical :class:`ChaosReport`,
which CI asserts (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

from repro.core.report import is_degraded, run_all
from repro.core.scenario import Scenario, dataset_names
from repro.faults.injectors import GarbageRows
from repro.faults.plan import FaultPlan
from repro.ingest import ErrorBudget, ErrorBudgetExceeded, Quarantine
from repro.obs import get_registry, trace_span

#: Counter families embedded in the artifact's ``metrics`` section.
#: Deliberately counters-only and delta-based: every family here counts
#: deterministic, seed-derived events (quarantined records, injected
#: faults, dataset builds), so the chaos artifact stays byte-identical
#: across runs — timers and gauges carry wall-clock noise and are
#: excluded.
_METRIC_PREFIXES = (
    "ingest.",
    "faults.",
    "scenario.dataset.",
)

#: The default campaign: three heavy-traffic datasets, three distinct
#: injectors.  Enough to degrade several exhibits without emptying the
#: report — the "degraded but complete" posture CI asserts on.
DEFAULT_SPECS = (
    "cables:truncate",
    "peeringdb:bitflip",
    "asrel:droplines",
)

#: Budget for the ingestion drill: roomy, because the drill injects a
#: fixed amount of damage into files of very different sizes and its
#: point is to count quarantined records, not to trip the budget.
_DRILL_BUDGET = ErrorBudget(max_ratio=0.5, grace=16)

#: Garbage lines inserted into each line-oriented wire file.
_DRILL_GARBAGE = GarbageRows(rows=8, width=30)

#: Every k-th JSON row loses a required key in the drill.
_DRILL_STRIDE = 3


@dataclass
class ChaosReport:
    """The deterministic outcome of one chaos run."""

    seed: int
    plan: dict[str, object]
    datasets: list[dict[str, object]]
    coverage: tuple[int, int]
    exhibits: dict[str, object]
    drill: list[dict[str, object]]
    injections: list[dict[str, object]] = field(default_factory=list)
    metrics: dict[str, int] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        """``complete`` / ``degraded-but-complete`` — the run never aborts."""
        available, total = self.coverage
        return "complete" if available == total else "degraded-but-complete"

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": "repro.chaos/1",
            "seed": self.seed,
            "plan": self.plan,
            "verdict": self.verdict,
            "coverage": {
                "available": self.coverage[0],
                "total": self.coverage[1],
            },
            "datasets": self.datasets,
            "exhibits": self.exhibits,
            "drill": self.drill,
            "injections": self.injections,
            "metrics": self.metrics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def render(self) -> str:
        """The terminal resilience report."""
        available, total = self.coverage
        lines = [
            f"CHAOS: seed={self.seed} verdict={self.verdict}",
            f"  datasets: {available}/{total} available",
        ]
        for entry in self.datasets:
            if entry["status"] == "degraded":
                lines.append(f"    degraded {entry['name']}: {entry['reason']}")
        lines.append(
            "  exhibits: {ok}/{total} rendered, {degraded} degraded".format(
                **self.exhibits
            )
        )
        lines.append(f"  injections: {len(self.injections)}")
        lines.append("  ingestion drill:")
        for entry in self.drill:
            if entry["status"] == "skipped":
                lines.append(
                    f"    {entry['component']}: skipped ({entry['reason']})"
                )
            elif entry["status"] == "ok":
                lines.append(
                    f"    {entry['component']}: {entry['accepted']} accepted, "
                    f"{entry['quarantined']} quarantined"
                )
            else:
                lines.append(
                    f"    {entry['component']}: {entry['status']} ({entry['reason']})"
                )
        return "\n".join(lines)


def run_chaos(
    seed: int = 0,
    specs: tuple[str, ...] | list[str] | None = None,
    *,
    strict: bool = False,
    ndt_tests_per_month: int = 40,
    gpdns_samples_per_month: int = 2,
) -> ChaosReport:
    """Build + report + ingestion-drill under an injection plan.

    Args:
        seed: Fault-plan seed (also reused as the scenario seed offset
            is *not* applied — the scenario keeps its default seed so the
            world under test is the same world the exhibits always see).
        specs: ``dataset[:injector]`` strings; ``None`` uses
            :data:`DEFAULT_SPECS`.
        strict: Propagate the first injected failure instead of
            degrading (exercises the ``--strict`` escape hatch).
        ndt_tests_per_month: Scenario size knob, passed through.
        gpdns_samples_per_month: Scenario size knob, passed through.

    Raises:
        Exception: only in ``strict`` mode, where injected corruption is
            allowed to propagate.
    """
    baseline = _counter_values()
    plan = FaultPlan.from_specs(
        specs if specs is not None else DEFAULT_SPECS, seed=seed
    )
    scenario = Scenario(
        ndt_tests_per_month=ndt_tests_per_month,
        gpdns_samples_per_month=gpdns_samples_per_month,
        strict=strict,
        fault_plan=plan,
    )
    scenario.build_all()

    degraded = {d.name: d for d in scenario.degraded()}
    datasets = [
        {"name": name, "status": "degraded", "reason": degraded[name].reason}
        if name in degraded
        else {"name": name, "status": "ok"}
        for name in dataset_names()
    ]

    exhibits = run_all(scenario)
    bad = [e.exhibit_id for e in exhibits if is_degraded(e)]
    exhibit_summary: dict[str, object] = {
        "total": len(exhibits),
        "ok": len(exhibits) - len(bad),
        "degraded": len(bad),
        "affected": bad,
    }

    drill = _ingestion_drill(scenario, plan)

    return ChaosReport(
        seed=seed,
        plan=plan.describe(),
        datasets=datasets,
        coverage=scenario.coverage(),
        exhibits=exhibit_summary,
        drill=drill,
        injections=[record.to_dict() for record in plan.injections],
        metrics=_metrics_delta(baseline),
    )


def _counter_values() -> dict[str, int]:
    """Current values of the artifact-worthy counter families."""
    return {
        counter.name: counter.value
        for counter in get_registry().counters()
        if counter.name.startswith(_METRIC_PREFIXES)
    }


def _metrics_delta(baseline: dict[str, int]) -> dict[str, int]:
    """Counters attributable to this run: current minus *baseline*.

    Delta-based so repeated in-process runs (tests, long-lived callers)
    embed identical numbers — the artifact reflects the run, not the
    process history.
    """
    return {
        name: value - baseline.get(name, 0)
        for name, value in _counter_values().items()
        if value - baseline.get(name, 0)
    }


# -- ingestion drill ---------------------------------------------------------


def _ingestion_drill(scenario: Scenario, plan: FaultPlan) -> list[dict[str, object]]:
    """Damage each wire format deterministically, re-parse leniently."""
    steps = [
        ("registry.delegation", "delegations", _drill_delegation),
        ("bgp.asrel", "asrel", _drill_asrel),
        ("bgp.prefix2as", "prefix2as", _drill_prefix2as),
        ("peeringdb.objects", "peeringdb", _drill_peeringdb),
        ("telegeography.cables", "cables", _drill_cablemap),
        ("mlab.ndt", "ndt_tests", _drill_ndt),
    ]
    results: list[dict[str, object]] = []
    for component, dataset, drill in steps:
        value = scenario.materialise(dataset)
        from repro.core.degrade import DegradedDataset

        if isinstance(value, DegradedDataset):
            results.append(
                {
                    "component": component,
                    "status": "skipped",
                    "reason": f"dataset {dataset!r} degraded",
                }
            )
            continue
        quarantine = Quarantine(component, budget=_DRILL_BUDGET)
        try:
            with trace_span(f"faults.drill.{component}"):
                accepted = drill(value, plan, quarantine)
        except ErrorBudgetExceeded as exc:
            results.append(
                {
                    "component": component,
                    "status": "budget_exceeded",
                    "reason": str(exc),
                }
            )
            continue
        except ValueError as exc:
            results.append(
                {
                    "component": component,
                    "status": "failed",
                    "reason": f"{type(exc).__name__}: {exc}",
                }
            )
            continue
        results.append(
            {
                "component": component,
                "status": "ok",
                "accepted": accepted,
                "quarantined": len(quarantine),
            }
        )
    return results


def _garbage(text: str, plan: FaultPlan, component: str) -> str:
    """Insert garbage lines using the plan-derived drill RNG."""
    damaged = _DRILL_GARBAGE.apply(
        text.encode("utf-8"), plan.rng_for(component, 0, "drill")
    )
    return damaged.decode("utf-8", errors="replace")


def _drill_delegation(value, plan, quarantine) -> int:
    from repro.registry.delegation import parse_delegation_file

    damaged = _garbage(value.to_text(), plan, "registry.delegation")
    parsed = parse_delegation_file(damaged, quarantine=quarantine)
    return len(parsed.records)


def _drill_asrel(value, plan, quarantine) -> int:
    from repro.bgp.asrel import parse_asrel

    snapshot = value[value.months()[0]]
    damaged = _garbage(snapshot.to_text(), plan, "bgp.asrel")
    return len(parse_asrel(damaged, quarantine=quarantine))


def _drill_prefix2as(value, plan, quarantine) -> int:
    from repro.bgp.prefix2as import parse_prefix2as

    snapshot = value[value.months()[0]]
    damaged = _garbage(snapshot.to_text(), plan, "bgp.prefix2as")
    return len(parse_prefix2as(damaged, quarantine=quarantine))


def _drill_peeringdb(value, plan, quarantine) -> int:
    from repro.peeringdb.schema import PeeringDBSnapshot

    snapshot = value[value.months()[0]]
    payload = json.loads(snapshot.to_json())
    # Strip a required key from every k-th network row: the shape of a
    # partially-broken dump export.
    for index, row in enumerate(payload.get("net", {}).get("data", [])):
        if index % _DRILL_STRIDE == 0:
            row.pop("asn", None)
    parsed = PeeringDBSnapshot.from_json(
        json.dumps(payload), quarantine=quarantine
    )
    return (
        len(parsed.orgs)
        + len(parsed.facilities)
        + len(parsed.networks)
        + len(parsed.exchanges)
        + len(parsed.netfacs)
        + len(parsed.netixlans)
    )


def _drill_cablemap(value, plan, quarantine) -> int:
    from repro.telegeography.model import CableMap

    payload = json.loads(value.to_json())
    for index, cable in enumerate(payload.get("cables", [])):
        if index % _DRILL_STRIDE == 0:
            cable.pop("rfs", None)
    parsed = CableMap.from_json(json.dumps(payload), quarantine=quarantine)
    return len(parsed)


def _drill_ndt(value, plan, quarantine) -> int:
    from repro.mlab.ndt import parse_ndt_jsonl

    lines = [result.to_json() for result in value[:200]]
    for index in range(0, len(lines), 7):
        lines[index] = '{"date": "not-a-date"}'
    handle = tempfile.NamedTemporaryFile(
        "w", suffix=".jsonl", delete=False, encoding="utf-8"
    )
    try:
        handle.write("\n".join(lines) + "\n")
        handle.close()
        return sum(1 for _ in parse_ndt_jsonl(handle.name, quarantine=quarantine))
    finally:
        os.unlink(handle.name)
