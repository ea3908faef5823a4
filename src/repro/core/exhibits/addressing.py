"""Section 4 / Appendix C exhibits: Fig. 2 and Fig. 14."""

from __future__ import annotations

from repro.core.exhibit import Exhibit, register, row
from repro.core.scenario import Scenario
from repro.registry.address_plan import AS_CANTV, AS_TELEFONICA
from repro.registry.address_space import allocation_series
from repro.timeseries.month import Month


@register("fig02")
def fig02_address_space(scenario: Scenario) -> Exhibit:
    """Fig. 2: CANTV vs Telefonica announced address space."""
    archive = scenario.prefix2as
    months = archive.months()
    allocated = allocation_series(scenario.delegations, "VE", months[0], months[-1])
    cantv = archive.announced_series(AS_CANTV)
    telefonica = archive.announced_series(AS_TELEFONICA)

    cantv_share = {
        m: cantv[m] / allocated[m] for m in months if allocated.get(m)
    }
    gap_pts = [
        (cantv[m] - telefonica[m]) / allocated[m] * 100.0
        for m in months
        if allocated.get(m)
    ]
    before = telefonica[Month(2016, 5)]
    during = telefonica[Month(2017, 1)]
    after = telefonica[Month(2023, 7)]
    rows = [
        row("CANTV peak share of VE space", 0.69, max(cantv_share.values())),
        row(
            "CANTV mean share of VE space",
            0.43,
            sum(cantv_share.values()) / len(cantv_share),
        ),
        row("closest CANTV-Telefonica gap (pp)", 11.0, min(gap_pts)),
        row("CANTV announced addresses (final)", None, cantv.last_value()),
        row("Telefonica announced before withdrawal", None, before),
        row("Telefonica announced during contraction", None, during),
        row("Telefonica contraction depth (fraction)", None, during / before),
        row("Telefonica recovers pre-withdrawal size", "yes", "yes" if after == before else "no"),
    ]
    return Exhibit(
        "fig02",
        "Allocated and announced address space: CANTV vs Telefonica",
        rows,
        notes="shares are announced/allocated within Venezuela, per month",
    )


@register("fig14")
def fig14_telefonica_prefixes(scenario: Scenario) -> Exhibit:
    """Fig. 14 (Appendix C): Telefonica prefix visibility heatmap."""
    archive = scenario.prefix2as
    matrix = archive.visibility_matrix(AS_TELEFONICA)
    may_2016 = Month(2016, 5)
    jan_2017 = Month(2017, 1)
    jul_2023 = Month(2023, 7)

    def routed_at(month: Month) -> int:
        return sum(1 for months in matrix.values() if month in months)

    withdrawn = [
        prefix
        for prefix, months in matrix.items()
        if may_2016 in months and jan_2017 not in months
    ]
    aggregates_back = [
        prefix
        for prefix, months in matrix.items()
        if jul_2023 in months and may_2016 not in months
    ]
    rows = [
        row("prefixes tracked in heatmap", None, len(matrix)),
        row("routed prefixes 2016-05", None, routed_at(may_2016)),
        row("routed prefixes 2017-01", None, routed_at(jan_2017)),
        row("/17s withdrawn around June 2016", None, len(withdrawn)),
        row(
            "withdrawal includes 179.23.0.0/17 and 179.23.128.0/17",
            "yes",
            "yes"
            if {"179.23.0.0/17", "179.23.128.0/17"} <= set(withdrawn)
            else "no",
        ),
        row("blocks reappearing as aggregates in 2023", None, len(aggregates_back)),
        row(
            "179.20.0.0/14 reappears in 2023",
            "yes",
            "yes" if "179.20.0.0/14" in aggregates_back else "no",
        ),
    ]
    return Exhibit(
        "fig14", "Telefonica de Venezuela prefix visibility, 2016-2024", rows
    )
