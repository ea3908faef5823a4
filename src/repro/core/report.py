"""Run exhibits and render the paper-vs-measured report.

Every exhibit computation is timed into ``exhibit.run.<id>`` and
counted in ``exhibit.runs`` (see :mod:`repro.obs`), so ``python -m repro
stats`` and the ``--metrics-json`` artifact report per-exhibit wall
time.  A repeat on the same scenario is a memo hit and is not counted.

Degradation (see ``docs/RELIABILITY.md``): an exhibit whose scenario
dataset degraded in lenient mode renders as an empty table carrying a
``degraded:`` note instead of raising, and the report gains a trailing
coverage section naming the unavailable datasets.  When nothing is
degraded the report is byte-identical to the historical output.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.degrade import DatasetDegradedError
from repro.core.exhibit import Exhibit, exhibit_ids, get_exhibit
from repro.core.scenario import Persist, Scenario
from repro.obs import get_registry, timed, trace_span

#: Note prefix marking an exhibit that could not run (used by the chaos
#: report and tests to count degraded exhibits without a new field).
DEGRADED_NOTE_PREFIX = "degraded:"


def is_degraded(exhibit: Exhibit) -> bool:
    """Whether *exhibit* is a degradation placeholder, not a result."""
    return exhibit.notes.startswith(DEGRADED_NOTE_PREFIX)


def degraded_note(err: DatasetDegradedError) -> str:
    """The ``degraded:`` text a placeholder carries for *err*."""
    return f"{DEGRADED_NOTE_PREFIX} dataset {err.name!r} unavailable ({err.reason})"


def run_exhibit(scenario: Scenario, exhibit_id: str) -> Exhibit:
    """One exhibit of a scenario, computed on its first request.

    The result is memoized on the scenario (:meth:`Scenario.derive`),
    so ``/v1/report`` and ``/v1/exhibit/<id>`` share one computation,
    and persisted in its dataset cache, keyed on the exhibit's module;
    the timer and counter record computations, not memo or cache hits.

    A :class:`DatasetDegradedError` out of the exhibit function becomes
    an empty placeholder exhibit (``degraded:`` note) rather than a
    raise — one unavailable dataset must not take down a 23-exhibit
    report.  Any other exception propagates unchanged.
    """
    fn = get_exhibit(exhibit_id)

    def compute() -> Exhibit:
        try:
            exhibit = timed(f"exhibit.run.{exhibit_id}", lambda: fn(scenario))
        except DatasetDegradedError as err:
            get_registry().counter("exhibit.degraded").inc()
            exhibit = Exhibit(
                exhibit_id=exhibit_id,
                title=_placeholder_title(exhibit_id),
                rows=[],
                notes=degraded_note(err),
            )
        get_registry().counter("exhibit.runs").inc()
        return exhibit

    persist = Persist(fn.__module__, asdict, lambda doc: Exhibit(**doc))
    return scenario.derive(("exhibit", exhibit_id), compute, persist)


def _placeholder_title(exhibit_id: str) -> str:
    from repro.core.exhibit import exhibit_title

    return exhibit_title(exhibit_id)


def run_all(scenario: Scenario) -> list[Exhibit]:
    """Run every registered exhibit, in id order."""
    with trace_span("report.run.all"):
        return [run_exhibit(scenario, exhibit_id) for exhibit_id in exhibit_ids()]


def coverage_section(scenario: Scenario, exhibits: list[Exhibit]) -> str:
    """The ``k/n datasets available`` trailer, or ``""`` when complete.

    Strictly additive: a fully healthy run returns the empty string so
    the report stays byte-identical to the pre-degradation output.
    """
    degraded = scenario.degraded()
    if not degraded:
        return ""
    available, total = scenario.coverage()
    lines = [
        f"COVERAGE: {available}/{total} datasets available",
    ]
    lines.extend(f"  degraded {d.render()}" for d in degraded)
    bad_exhibits = [e.exhibit_id for e in exhibits if is_degraded(e)]
    if bad_exhibits:
        lines.append(
            f"  exhibits affected: {len(bad_exhibits)}/{len(exhibits)}"
            f" ({', '.join(bad_exhibits)})"
        )
    return "\n".join(lines)


def render_report(scenario: Scenario) -> str:
    """The full text report: every exhibit's table, separated by rules.

    When any dataset degraded (lenient mode), a coverage section is
    appended after the final exhibit; otherwise the output is identical
    to the historical report.
    """
    exhibits = run_all(scenario)
    parts = [exhibit.render() for exhibit in exhibits]
    rule = "\n" + "=" * 72 + "\n"
    trailer = coverage_section(scenario, exhibits)
    if trailer:
        parts.append(trailer)
    return rule.join(parts)
