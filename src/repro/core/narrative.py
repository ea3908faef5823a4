"""Data-driven findings: the paper's headline bullets, computed.

The paper's introduction summarises the crisis's network impact in four
bullets (infrastructure, interdomain connectivity, access performance).
This module regenerates those sentences from the scenario's own data, so
every number in the narrative is measured, not quoted.

Degradation (see ``docs/RELIABILITY.md``): a finding whose dataset
degraded in lenient mode reads ``degraded: dataset '<name>' unavailable
(<reason>)`` instead of raising, as a degraded exhibit does in the
report.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable

from repro.core import shared
from repro.core.degrade import DatasetDegradedError
from repro.core.report import degraded_note
from repro.core.scenario import Persist, Scenario
from repro.registry.address_plan import AS_CANTV
from repro.timeseries.month import Month


@dataclass(frozen=True, slots=True)
class Finding:
    """One computed headline finding."""

    topic: str
    text: str


def infrastructure_finding(scenario: Scenario) -> Finding:
    """The submarine-cable / peering-facility bullet."""
    cables = scenario.cables
    region_before = len(cables.regional_cables(2000))
    region_after = len(cables.regional_cables(2024))
    ve_added = [c.name for c in cables.cables_touching("VE") if c.rfs_year > 2000]
    facilities = shared.facility_count_panel(scenario)
    total = facilities.regional_sum()
    ve_facilities = facilities["VE"].last_value()
    text = (
        f"While the region grew from {region_before} to {region_after} submarine "
        f"cables, Venezuela added only {len(ve_added)} ({', '.join(ve_added)}); "
        f"peering facilities grew from {total.first_value():.0f} to "
        f"{total.last_value():.0f} region-wide while Venezuela hosts just "
        f"{ve_facilities:.0f}."
    )
    return Finding("infrastructure", text)


def interdomain_finding(scenario: Scenario) -> Finding:
    """The CANTV transit / IXP bullet."""
    from repro.bgp.synthetic import US_REGISTERED_PROVIDERS
    from repro.ixp.coverage import country_us_presence

    ups = scenario.asrel.upstream_count_series(AS_CANTV)
    # The trough is measured after the 2013 peak (the early years also
    # had few providers, but that was growth, not decline).
    trough = ups.clip_range(ups.argmax(), ups.last_month()).min()
    final = scenario.asrel[scenario.asrel.months()[-1]].upstreams_of(AS_CANTV)
    us_left = sorted(final & US_REGISTERED_PROVIDERS)
    networks, pct = country_us_presence(
        scenario.peeringdb.latest(), scenario.populations, "VE"
    )
    text = (
        f"CANTV's transit degree fell from {ups.max():.0f} providers at the "
        f"2013 peak to {trough:.0f}, leaving {len(us_left)} US-registered "
        f"provider; Venezuela hosts no IXP, and only {networks} of its networks "
        f"(serving {pct:.0f}% of users) peer at exchanges in the US."
    )
    return Finding("interdomain", text)


def performance_finding(scenario: Scenario) -> Finding:
    """The bandwidth / latency bullet."""
    from repro.timeseries.stats import stagnation_months

    panel = shared.median_download_panel(scenario)
    ve = panel["VE"].rolling_mean(3)
    below = stagnation_months(ve, 1.0)
    latest_speed = panel["VE"].last_value()

    minima = shared.min_rtt_per_probe_month(scenario)
    probe_country = {p.probe_id: p.country for p in scenario.probes.probes}
    last_half = [Month(2023, m) for m in range(7, 13)]
    by_country: dict[str, list[float]] = {}
    for (pid, month), rtt in minima.items():
        if month in last_half:
            by_country.setdefault(probe_country[pid], []).append(rtt)
    medians = {cc: statistics.median(rtts) for cc, rtts in by_country.items()}
    regional = statistics.fmean(medians.values())
    ratio = medians["VE"] / regional
    text = (
        f"Download speeds stayed below 1 Mbps for {below // 12} years "
        f"(now {latest_speed:.1f} Mbps), and Venezuelan latency to Google "
        f"Public DNS runs {ratio:.2f}x the regional average "
        f"({medians['VE']:.1f} ms vs {regional:.1f} ms)."
    )
    return Finding("performance", text)


def dns_finding(scenario: Scenario) -> Finding:
    """The root-DNS regression bullet."""
    panel = shared.replica_count_panel(scenario)
    total = panel.regional_sum()
    ve = panel.get("VE")
    ve_start = ve.first_value() if ve else 0
    text = (
        f"Root DNS replicas in the region grew from {total.first_value():.0f} "
        f"to {total.last_value():.0f}, while Venezuela went the opposite way: "
        f"from {ve_start:.0f} domestic replicas to none."
    )
    return Finding("dns", text)


def _finding_or_placeholder(
    scenario: Scenario, finding: Callable[[Scenario], Finding]
) -> Finding:
    """*finding* computed, or its ``degraded:`` placeholder."""
    try:
        return finding(scenario)
    except DatasetDegradedError as err:
        return Finding(finding.__name__.removesuffix("_finding"), degraded_note(err))


def all_findings(scenario: Scenario) -> list[Finding]:
    """Every computed finding, in the paper's presentation order.

    Each finding is memoized on the scenario (:meth:`Scenario.derive`),
    a degradation placeholder too: it carries the reads that raised, so
    a world that inherits from this one recomputes it once the dataset
    is rebuilt.  Findings are persisted in the dataset cache;
    placeholders are not.
    """
    return [
        scenario.derive(
            ("finding", finding.__name__),
            partial(_finding_or_placeholder, scenario, finding),
            _PERSIST,
        )
        for finding in (
            infrastructure_finding,
            interdomain_finding,
            performance_finding,
            dns_finding,
        )
    ]


_PERSIST = Persist(__name__, asdict, lambda doc: Finding(**doc))


def format_findings(findings: list[Finding]) -> str:
    """Already-computed findings as a bulleted block."""
    return "\n".join(f"* [{finding.topic}] {finding.text}" for finding in findings)


def render_findings(scenario: Scenario) -> str:
    """The findings as a bulleted block."""
    return format_findings(all_findings(scenario))
