"""Figure-series extraction: the actual plotted lines of each figure.

The exhibits in :mod:`repro.core.exhibits` report headline numbers; this
module exposes the *series* behind the paper's recurring three-panel
layout (country comparison on top, a Venezuela zoom lower-left, a
regional aggregate lower-right), so downstream users can re-plot the
figures with any tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core import shared
from repro.core.scenario import Scenario
from repro.geo.countries import is_lacnic
from repro.timeseries.panel import CountryPanel
from repro.timeseries.series import MonthlySeries


class AggregateMode(str, Enum):
    """How the figure's lower-right panel aggregates the region."""

    SUM = "sum"
    MEAN = "mean"
    MEDIAN = "median"


@dataclass
class ThreePanelFigure:
    """The paper's standard figure layout as data.

    Attributes:
        figure_id: Paper figure id (e.g. ``"fig03"``).
        title: Figure caption, abbreviated.
        panel: Per-country series (the top panel; highlight a subset).
        highlight: Countries plotted in vivid colours in the paper.
        zoom: The Venezuela-only series (lower-left).
        aggregate: The regional aggregate series (lower-right).
        aggregate_mode: How the aggregate was computed.
        unit: Y-axis unit.
    """

    figure_id: str
    title: str
    panel: CountryPanel
    highlight: tuple[str, ...]
    zoom: MonthlySeries
    aggregate: MonthlySeries
    aggregate_mode: AggregateMode
    unit: str


def _three_panel(
    figure_id: str,
    title: str,
    panel: CountryPanel,
    mode: AggregateMode,
    unit: str,
    highlight: tuple[str, ...] = ("AR", "BR", "CL", "CO", "MX", "UY", "VE"),
) -> ThreePanelFigure:
    lacnic_panel = panel.filter_countries(is_lacnic)
    if mode is AggregateMode.SUM:
        aggregate = lacnic_panel.regional_sum()
    elif mode is AggregateMode.MEAN:
        aggregate = lacnic_panel.regional_mean()
    else:
        aggregate = lacnic_panel.regional_median()
    zoom = lacnic_panel.get("VE", MonthlySeries())
    return ThreePanelFigure(
        figure_id=figure_id,
        title=title,
        panel=lacnic_panel,
        highlight=highlight,
        zoom=zoom,
        aggregate=aggregate,
        aggregate_mode=mode,
        unit=unit,
    )


def fig03_series(scenario: Scenario) -> ThreePanelFigure:
    """Fig. 3: peering facilities per country."""
    return _three_panel(
        "fig03",
        "Peering facilities",
        shared.facility_count_panel(scenario),
        AggregateMode.SUM,
        "facilities",
    )


def fig04_series(scenario: Scenario) -> ThreePanelFigure:
    """Fig. 4: submarine cables per country."""
    figure = _three_panel(
        "fig04",
        "Submarine cable networks",
        shared.cable_count_panel(scenario, 1990, 2024),
        AggregateMode.SUM,
        "cables",
    )
    # The paper's lower-right counts each cable once region-wide.
    figure.aggregate = scenario.cables.regional_count_series(1990, 2024)
    return figure


def fig05_series(scenario: Scenario) -> ThreePanelFigure:
    """Fig. 5: IPv6 adoption per country."""
    return _three_panel(
        "fig05",
        "IPv6 adoption (Meta)",
        shared.ipv6_panel(scenario),
        AggregateMode.MEAN,
        "%",
    )


def fig06_series(scenario: Scenario) -> ThreePanelFigure:
    """Fig. 6: root DNS replicas per country."""
    return _three_panel(
        "fig06",
        "Root DNS replicas",
        shared.replica_count_panel(scenario),
        AggregateMode.SUM,
        "replicas",
    )


def fig11_series(scenario: Scenario) -> ThreePanelFigure:
    """Fig. 11: median download speed per country."""
    return _three_panel(
        "fig11",
        "Median download speed",
        shared.median_download_panel(scenario),
        AggregateMode.MEAN,
        "Mbps",
    )


def fig12_series(scenario: Scenario) -> ThreePanelFigure:
    """Fig. 12: median RTT to Google Public DNS per country."""
    from repro.core.exhibits.performance import gpdns_country_medians

    return _three_panel(
        "fig12",
        "Median RTT to Google Public DNS",
        gpdns_country_medians(scenario),
        AggregateMode.MEAN,
        "ms",
    )


def fig17_series(scenario: Scenario) -> ThreePanelFigure:
    """Fig. 17: RIPE Atlas probes per country."""
    from repro.rootdns.analysis import probe_count_panel

    return _three_panel(
        "fig17",
        "RIPE Atlas probes",
        probe_count_panel(scenario.chaos_observations),
        AggregateMode.SUM,
        "probes",
    )


#: All three-panel figure builders by id.
THREE_PANEL_FIGURES = {
    "fig03": fig03_series,
    "fig04": fig04_series,
    "fig05": fig05_series,
    "fig06": fig06_series,
    "fig11": fig11_series,
    "fig12": fig12_series,
    "fig17": fig17_series,
}
