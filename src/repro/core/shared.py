"""Intermediates that several exhibits, findings and scorecard panels read.

Each accessor memoizes one value on the scenario
(:meth:`repro.core.scenario.Scenario.derive`), so a world computes it
once whichever reader asks first, and an ingest apply inherits it when
none of the datasets it read changed.  Every ``repro.core`` reader goes
through these accessors.  The values are shared, so readers treat them
as read-only: nothing calls ``CountryPanel.set`` on one.

The underlying functions are looked up at call time, so a patched
``repro.mlab.aggregate.median_download_panel`` (say) is the one called.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.atlas import traceroute
from repro.mlab import aggregate
from repro.rootdns import analysis

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scenario import Scenario
    from repro.timeseries.month import Month
    from repro.timeseries.panel import CountryPanel


def median_download_panel(scenario: "Scenario") -> "CountryPanel":
    """Median NDT download speed per country-month (Fig. 11, speed panel)."""
    return scenario.derive(
        ("shared", "median_download_panel"),
        lambda: aggregate.median_download_panel(scenario.ndt_tests),
    )


def replica_count_panel(scenario: "Scenario") -> "CountryPanel":
    """Root DNS replicas per LACNIC country-month (Fig. 6, root panel)."""
    return scenario.derive(
        ("shared", "replica_count_panel"),
        lambda: analysis.replica_count_panel(scenario.chaos_observations),
    )


def min_rtt_per_probe_month(scenario: "Scenario") -> dict[tuple[int, "Month"], float]:
    """Each probe's monthly minimum RTT to GPDNS (Figs. 12, 20)."""
    return scenario.derive(
        ("shared", "min_rtt_per_probe_month"),
        lambda: traceroute.min_rtt_per_probe_month(scenario.gpdns_traceroutes),
    )


def facility_count_panel(scenario: "Scenario") -> "CountryPanel":
    """Peering facilities per country-month (Fig. 3, facilities panel)."""
    return scenario.derive(
        ("shared", "facility_count_panel"),
        lambda: scenario.peeringdb.facility_count_panel(),
    )


def ipv6_panel(scenario: "Scenario") -> "CountryPanel":
    """IPv6 adoption per country-month (Fig. 5, IPv6 panel)."""
    return scenario.derive(("shared", "ipv6_panel"), lambda: scenario.ipv6.panel())


def cable_count_panel(
    scenario: "Scenario", first_year: int, last_year: int
) -> "CountryPanel":
    """Cumulative submarine cables per country, one value per year."""
    return scenario.derive(
        ("shared", "cable_count_panel", first_year, last_year),
        lambda: scenario.cables.count_panel(first_year, last_year),
    )
