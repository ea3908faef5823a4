"""Section 7 / Appendix J exhibits: Figs. 11, 12 and 20."""

from __future__ import annotations

import statistics

from repro.core import shared
from repro.core.exhibit import Exhibit, register, row
from repro.core.scenario import Scenario
from repro.geo.venezuela import distance_to_colombian_border_km
from repro.timeseries.month import Month
from repro.timeseries.panel import CountryPanel
from repro.timeseries.series import MonthlySeries
from repro.timeseries.stats import half_year_value, stagnation_months


@register("fig11")
def fig11_bandwidth(scenario: Scenario) -> Exhibit:
    """Fig. 11: median download speeds across the region."""
    panel = shared.median_download_panel(scenario)
    july_2023 = Month(2023, 7)
    ve = panel["VE"]
    norm = panel.normalised_against_regional_mean("VE")
    # A 3-month rolling median damps the sampling noise of the monthly
    # medians before measuring the length of the sub-1-Mbps era.
    ve_smooth = ve.rolling_mean(3)
    rows = [
        row("VE months below 1 Mbps (longest run)", 120,
             float(stagnation_months(ve_smooth, 1.0))),
        row("VE median July 2023 (Mbps)", 2.93, ve[july_2023]),
        row("UY median July 2023 (Mbps)", 47.33, panel["UY"][july_2023]),
        row("BR median July 2023 (Mbps)", 32.44, panel["BR"][july_2023]),
        row("CL median July 2023 (Mbps)", 25.25, panel["CL"][july_2023]),
        row("AR median July 2023 (Mbps)", 15.48, panel["AR"][july_2023]),
        row("MX median July 2023 (Mbps)", 18.66, panel["MX"][july_2023]),
        row("VE / regional mean, 2009", 0.89, norm[Month(2009, 6)]),
        row("VE / regional mean, 2023", 0.17, norm[july_2023]),
        row("VE recovers past 1 Mbps after 2021", "yes",
             "yes" if ve[Month(2022, 6)] > 1.0 else "no"),
    ]
    return Exhibit("fig11", "Median download speeds (M-Lab NDT)", rows)


def gpdns_country_medians(scenario: Scenario) -> CountryPanel:
    """Median per-probe monthly min-RTT to GPDNS, per country."""
    minima = shared.min_rtt_per_probe_month(scenario)
    probe_country = {p.probe_id: p.country for p in scenario.probes.probes}
    per_country: dict[tuple[str, Month], list[float]] = {}
    for (probe_id, month), rtt in minima.items():
        cc = probe_country[probe_id]
        per_country.setdefault((cc, month), []).append(rtt)
    return CountryPanel.from_records(
        (cc, month, statistics.median(rtts))
        for (cc, month), rtts in per_country.items()
    )


@register("fig12")
def fig12_gpdns_rtt(scenario: Scenario) -> Exhibit:
    """Fig. 12: median RTT to Google Public DNS."""
    panel = gpdns_country_medians(scenario)

    def half(cc: str, year: int, half_idx: int) -> float:
        return half_year_value(panel[cc], year, half_idx)

    paper_halves = {
        "AR": (12.27, 11.36),
        "CL": (11.25, 11.87),
        "CO": (48.48, 16.10),
        "BR": (18.12, 7.52),
        "MX": (30.21, 21.28),
        "VE": (45.71, 36.56),
    }
    rows = []
    for cc, (h2016, h2023) in paper_halves.items():
        rows.append(row(f"{cc} median RTT 2016 H1 (ms)", h2016, half(cc, 2016, 1)))
        rows.append(row(f"{cc} median RTT 2023 H2 (ms)", h2023, half(cc, 2023, 2)))
    lacnic_mean = statistics.fmean(
        half(cc, 2023, 2) for cc in panel.countries()
    )
    ve_2023 = half("VE", 2023, 2)
    rows.append(row("LACNIC mean 2023 H2 (ms)", 17.74, lacnic_mean))
    rows.append(row("VE / LACNIC ratio", 2.06, ve_2023 / lacnic_mean))
    rows.append(
        row("VE / BR ratio", 4.86, ve_2023 / half("BR", 2023, 2))
    )
    return Exhibit("fig12", "Median RTT to Google Public DNS", rows)


#: The Fig. 20 latency bins (ms upper bounds; None = unbounded).
FIG20_BINS: tuple[tuple[str, float | None], ...] = (
    ("<10ms", 10.0),
    ("10-20ms", 20.0),
    ("20-40ms", 40.0),
    (">40ms", None),
)


def classify_bin(rtt: float) -> str:
    """Assign an RTT to its Fig. 20 map bin."""
    for label, bound in FIG20_BINS:
        if bound is None or rtt < bound:
            return label
    raise AssertionError("unreachable")


@register("fig20")
def fig20_probe_map(scenario: Scenario) -> Exhibit:
    """Fig. 20 (Appendix J): Venezuelan probes coloured by min RTT."""
    month = Month(2023, 12)
    minima = shared.min_rtt_per_probe_month(scenario)
    probes = {p.probe_id: p for p in scenario.probes.active(month, "VE")}
    bins: dict[str, int] = {label: 0 for label, _b in FIG20_BINS}
    fast_distances: list[float] = []
    slow_distances: list[float] = []
    for (probe_id, m), rtt in minima.items():
        if m != month or probe_id not in probes:
            continue
        bins[classify_bin(rtt)] += 1
        probe = probes[probe_id]
        distance = distance_to_colombian_border_km(probe.lat, probe.lon)
        if rtt < 10.0:
            fast_distances.append(distance)
        if rtt > 40.0:
            slow_distances.append(distance)
    rows = [
        row("probes on the map", 30, float(len(probes))),
        row("probes under 10 ms", None, bins["<10ms"]),
        row("probes 10-20 ms", None, bins["10-20ms"]),
        row("probes 20-40 ms", None, bins["20-40ms"]),
        row("probes above 40 ms", None, bins[">40ms"]),
        row("fast probes sit on the Colombian border (max km)", "<100",
             max(fast_distances) if fast_distances else 0.0),
        row("slow probes sit far east (min km)", ">800",
             min(slow_distances) if slow_distances else 0.0),
        row("minimum VE RTT (no domestic GPDNS)", ">5",
             min(rtt for (pid, m), rtt in minima.items()
                 if m == month and pid in probes)),
    ]
    return Exhibit("fig20", "Venezuelan probe map: min RTT to GPDNS", rows)
