"""Divergence dashboard: when and how far Venezuela left the pack.

Every signal in the paper tells the same story -- Venezuela tracking the
region, then splitting off.  This module standardises that story: z-score
and percentile trajectories of one country against the rest of the panel,
and an algorithmic divergence onset (changepoint of the z-score series),
so the "around 2013" dating can be read off each signal independently.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.core import shared
from repro.core.scenario import Scenario
from repro.timeseries.month import Month
from repro.timeseries.panel import CountryPanel
from repro.timeseries.series import MonthlySeries
from repro.timeseries.trend import detect_changepoint


def zscore_series(panel: CountryPanel, country: str) -> MonthlySeries:
    """Per-month z-score of *country* against the other countries.

    Months with fewer than three other observations, or with zero spread,
    are skipped.
    """
    cc = country.upper()
    target = panel[cc]
    others = panel.filter_countries(lambda code: code != cc)
    values: dict[Month, float] = {}
    for month, value in target.items():
        sample = [
            s[month] for _c, s in others.items() if month in s
        ]
        if len(sample) < 3:
            continue
        spread = statistics.pstdev(sample)
        if spread == 0:
            continue
        values[month] = (value - statistics.fmean(sample)) / spread
    return MonthlySeries(values)


def percentile_series(panel: CountryPanel, country: str) -> MonthlySeries:
    """Per-month percentile of *country* (1.0 = top of the region)."""
    cc = country.upper()
    target = panel[cc]
    values: dict[Month, float] = {}
    for month, value in target.items():
        sample = [
            s[month]
            for code, s in panel.items()
            if code != cc and month in s
        ]
        if not sample:
            continue
        below = sum(1 for v in sample if v < value)
        values[month] = below / len(sample)
    return MonthlySeries(values)


@dataclass(frozen=True, slots=True)
class DivergenceSummary:
    """One signal's divergence story for one country."""

    signal: str
    onset: Month | None
    z_before: float
    z_after: float
    latest_percentile: float


def divergence_summary(
    panel: CountryPanel, country: str, signal: str, min_segment: int = 12
) -> DivergenceSummary:
    """Summarise one signal: onset month and before/after z-levels."""
    z = zscore_series(panel, country)
    pct = percentile_series(panel, country)
    latest_pct = pct.last_value() if pct else 0.0
    if len(z) < 2 * min_segment:
        mean_z = z.mean() if z else 0.0
        return DivergenceSummary(signal, None, mean_z, mean_z, latest_pct)
    change = detect_changepoint(z, min_segment=min_segment)
    before = z.clip_range(z.first_month(), change.month.plus(-1))
    after = z.clip_range(change.month, z.last_month())
    return DivergenceSummary(
        signal=signal,
        onset=change.month,
        z_before=before.mean(),
        z_after=after.mean(),
        latest_percentile=latest_pct,
    )


def crisis_dashboard(scenario: Scenario, country: str = "VE") -> list[DivergenceSummary]:
    """The divergence story across the paper's longitudinal signals."""
    from repro.core.exhibits.performance import gpdns_country_medians

    signals: list[tuple[str, CountryPanel, bool]] = [
        ("download speed", shared.median_download_panel(scenario), False),
        ("IPv6 adoption", shared.ipv6_panel(scenario), False),
        ("peering facilities", shared.facility_count_panel(scenario), False),
        ("GPDNS RTT", gpdns_country_medians(scenario), True),
    ]
    summaries = []
    for name, panel, invert in signals:
        if country.upper() not in panel:
            continue
        working = panel.map_series(lambda s: s.scale(-1.0)) if invert else panel
        summaries.append(divergence_summary(working, country, name))
    return summaries
