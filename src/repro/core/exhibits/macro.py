"""Section 2 / Appendix B exhibits: Fig. 1 and Fig. 13."""

from __future__ import annotations

from repro.core.exhibit import Exhibit, register, row
from repro.core.scenario import Scenario
from repro.macro.store import Indicator, annual
from repro.timeseries.stats import peak_decline_pct


@register("fig01")
def fig01_macro_collapse(scenario: Scenario) -> Exhibit:
    """Fig. 1: oil, GDP per capita, inflation and population collapse."""
    store = scenario.macro
    oil = store.series(Indicator.OIL_PRODUCTION, "VE")
    gdp = store.series(Indicator.GDP_PER_CAPITA, "VE")
    inflation = store.series(Indicator.INFLATION, "VE")
    population = store.series(Indicator.POPULATION, "VE")
    rows = [
        row("oil production decline from peak (%)", 81.49, peak_decline_pct(oil)),
        row(
            "oil production decline since 2013 (%)",
            77.0,
            peak_decline_pct(oil, since=annual(2013)),
        ),
        row("GDP per capita decline from peak (%)", 70.90, peak_decline_pct(gdp)),
        row("inflation peak (%)", 32_000.0, inflation.max()),
        row("inflation peak year", 2019, inflation.argmax().year),
        row("population decline from peak (%)", 13.85, peak_decline_pct(population)),
        row(
            "population lost since peak (millions)",
            4.25,
            population.max() - population.last_value(),
        ),
    ]
    return Exhibit("fig01", "The domino effect of Venezuela's economic collapse", rows)


@register("fig13")
def fig13_gdp_rank_path(scenario: Scenario) -> Exhibit:
    """Fig. 13 (Appendix B): Venezuela's regional GDP-per-capita rank."""
    panel = scenario.macro.panel(Indicator.GDP_PER_CAPITA)
    paper_ranks = (3, 2, 8, 9, 7, 6, 6, 18, 23)
    rows = [
        row(
            f"VE GDP pc rank in {year}",
            paper_rank,
            panel.rank_in_month("VE", annual(year)),
        )
        for year, paper_rank in zip(range(1980, 2021, 5), paper_ranks)
    ]
    rows.append(row("economies in panel", None, len(panel)))
    return Exhibit(
        "fig13", "GDP per capita rank of Venezuela in the LACNIC region", rows
    )
