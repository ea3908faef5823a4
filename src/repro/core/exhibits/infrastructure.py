"""Section 5 / Appendices D-F exhibits: Figs. 3-6, 15-17 and Table 2."""

from __future__ import annotations

from repro.core import shared
from repro.core.exhibit import Exhibit, register, row
from repro.core.scenario import Scenario
from repro.peeringdb.synthetic import VE_MEMBER_NAMES
from repro.rootdns.analysis import probe_count_panel, sites_seen_from_country
from repro.timeseries.month import Month
from repro.timeseries.stats import growth_factor


@register("fig03")
def fig03_peering_facilities(scenario: Scenario) -> Exhibit:
    """Fig. 3: growth of peering facilities in the LACNIC region."""
    panel = shared.facility_count_panel(scenario)
    total = panel.regional_sum()
    start, end = Month(2018, 4), Month(2024, 1)

    def span(cc: str) -> tuple[float, float]:
        series = panel[cc]
        return series.get(start, 0.0), series.get(end, 0.0)

    br = span("BR")
    mx = span("MX")
    cl = span("CL")
    cr = span("CR")
    ve = panel["VE"]
    rows = [
        row("LACNIC facilities 2018", 180, total[start]),
        row("LACNIC facilities 2024", 552, total[end]),
        row("Brazil 2018 -> 2024", "102 -> 311", f"{br[0]:.0f} -> {br[1]:.0f}"),
        row("Mexico 2018 -> 2024", "11 -> 45", f"{mx[0]:.0f} -> {mx[1]:.0f}"),
        row("Chile 2018 -> 2024", "18 -> 45", f"{cl[0]:.0f} -> {cl[1]:.0f}"),
        row("Costa Rica 2018 -> 2024", "3 -> 8", f"{cr[0]:.0f} -> {cr[1]:.0f}"),
        row("Venezuela facilities (final)", 4, ve[end]),
        row("Venezuela first registration", "2021", str(ve.first_month().year)),
    ]
    return Exhibit("fig03", "Peering facilities in the LACNIC region", rows)


@register("fig04")
def fig04_submarine_cables(scenario: Scenario) -> Exhibit:
    """Fig. 4: expansion of submarine cable networks."""
    cables = scenario.cables
    ve_added = [
        c.name for c in cables.cables_touching("VE") if c.rfs_year > 2000
    ]
    rows = [
        row("regional cables in 2000", 13, len(cables.regional_cables(2000))),
        row("regional cables in 2024", 54, len(cables.regional_cables(2024))),
        row("Brazil 2000 -> 2024", "5 -> 17",
             f"{cables.count_in_year('BR', 2000)} -> {cables.count_in_year('BR', 2024)}"),
        row("Colombia 2000 -> 2024", "5 -> 13",
             f"{cables.count_in_year('CO', 2000)} -> {cables.count_in_year('CO', 2024)}"),
        row("Chile 2000 -> 2024", "2 -> 9",
             f"{cables.count_in_year('CL', 2000)} -> {cables.count_in_year('CL', 2024)}"),
        row("Argentina 2000 -> 2024", "3 -> 9",
             f"{cables.count_in_year('AR', 2000)} -> {cables.count_in_year('AR', 2024)}"),
        row("Venezuela cables added after 2000", 1, len(ve_added)),
        row("Venezuela's only addition", "ALBA", ",".join(ve_added)),
        row("ALBA connects to Cuba", "yes",
             "yes" if cables.cable_by_name("ALBA-1").touches("CU") else "no"),
    ]
    return Exhibit("fig04", "Submarine cable networks reaching the region", rows)


@register("fig05")
def fig05_ipv6_adoption(scenario: Scenario) -> Exhibit:
    """Fig. 5: IPv6 request share seen by Meta."""
    panel = shared.ipv6_panel(scenario)
    mean = panel.regional_mean()
    rows = [
        row("regional mean early 2018 (%)", 5.0, mean[Month(2018, 1)]),
        row("regional mean early 2021 (%)", 11.0, mean[Month(2021, 1)]),
        row("regional mean 2023 (%)", 22.0, mean[Month(2023, 7)]),
        row("Mexico latest (%)", 40.0, panel["MX"].last_value()),
        row("Brazil latest (%)", 40.0, panel["BR"].last_value()),
        row("Venezuela mid-2023 (%)", 1.5, panel["VE"][Month(2023, 7)]),
        row("Venezuela 2020 (near zero, %)", 0.0, panel["VE"][Month(2020, 6)]),
    ]
    return Exhibit("fig05", "IPv6 adoption across the LACNIC region", rows)


@register("fig06")
def fig06_root_replicas(scenario: Scenario) -> Exhibit:
    """Fig. 6: root DNS replicas hosted per country."""
    panel = shared.replica_count_panel(scenario)
    total = panel.regional_sum()
    start, end = Month(2016, 1), Month(2024, 1)
    ve = panel.get("VE")
    rows = [
        row("regional replicas 2016", 59, total[start]),
        row("regional replicas 2024", 138, total[end]),
        row("regional growth factor", 2.34, growth_factor(total)),
        row("Mexico 2016 -> 2024", "4 -> 16",
             f"{panel['MX'][start]:.0f} -> {panel['MX'][end]:.0f}"),
        row("Chile 2016 -> 2024", "5 -> 20",
             f"{panel['CL'][start]:.0f} -> {panel['CL'][end]:.0f}"),
        row("Brazil 2016 -> 2024", "18 -> 41",
             f"{panel['BR'][start]:.0f} -> {panel['BR'][end]:.0f}"),
        row("Argentina adds one (14 -> 15)", "14 -> 15",
             f"{panel['AR'][start]:.0f} -> {panel['AR'][end]:.0f}"),
        row("Venezuela replicas 2016", 2, ve[start] if ve and start in ve else 0.0),
        row("Venezuela replicas latest", 0, ve.get(end, 0.0) if ve else 0.0),
    ]
    return Exhibit("fig06", "Root DNS replicas hosted in the region", rows)


@register("fig15")
def fig15_ve_facility_members(scenario: Scenario) -> Exhibit:
    """Fig. 15 (Appendix D): networks at Venezuelan facilities."""
    archive = scenario.peeringdb
    cirion = archive.facility_membership_series("Cirion La Urbina")
    lumen = archive.facility_membership_series("Lumen La Urbina")
    dayco = archive.facility_membership_series("Daycohost - Caracas")
    giga = archive.facility_membership_series("GigaPOP Maracaibo")
    globenet = archive.facility_membership_series("Globenet Maiquetia")
    rows = [
        row("Cirion La Urbina latest members", 11, cirion.last_value()),
        row("Lumen La Urbina peak members", 7, lumen.max()),
        row("Daycohost peak members", 3, dayco.max()),
        row("Daycohost latest members", 2, dayco.last_value()),
        row("GigaPOP Maracaibo members", 0, giga.max()),
        row("Globenet Maiquetia latest members", 2, globenet.last_value()),
        row("first facility registration", "2021-11", str(lumen.first_month())),
    ]
    return Exhibit("fig15", "Networks present at Venezuelan peering facilities", rows)


@register("table2")
def table2_facility_rosters(scenario: Scenario) -> Exhibit:
    """Table 2 (Appendix D): networks ever present per VE facility."""
    archive = scenario.peeringdb
    rows: list[dict[str, object]] = []
    for name in archive.facility_names_in("VE"):
        members = archive.facility_members_ever(name)
        for asn in sorted(members):
            rows.append(
                {
                    "facility": name,
                    "asn": asn,
                    "network": VE_MEMBER_NAMES.get(asn, members[asn]),
                }
            )
        if not members:
            rows.append({"facility": name, "asn": None, "network": "(none)"})
    return Exhibit(
        "table2",
        "Networks present at Venezuela's peering facilities",
        rows,
        notes="membership is 'ever present', matching the paper's table",
    )


@register("fig16")
def fig16_root_sources(scenario: Scenario) -> Exhibit:
    """Fig. 16 (Appendix E): where Venezuela's root DNS answers come from."""
    seen = sites_seen_from_country(scenario.chaos_observations, "VE")

    def hosts_at(month: Month) -> dict[str, int]:
        return {
            cc: count for (cc, m), count in seen.items() if m == month
        }

    early = hosts_at(Month(2017, 1))
    late = hosts_at(Month(2023, 6))
    top_late = max(late, key=lambda cc: late[cc])
    second_late = sorted(late, key=lambda cc: -late[cc])[1] if len(late) > 1 else "-"
    rows = [
        row("VE serves itself in 2017 (F+L)", "yes", "yes" if early.get("VE") else "no"),
        row("US is the main source in 2017", "yes",
             "yes" if max(early, key=lambda cc: early[cc]) == "US" else "no"),
        row("European sources in 2017", "GB,DE,FR/NL/SE",
             ",".join(sorted(cc for cc in early if cc in {"GB", "DE", "FR", "NL", "SE"}))),
        row("VE domestic source in 2023", "none", "none" if "VE" not in late else "present"),
        row("main source in 2023", "US", top_late),
        row("second source in 2023", "BR", second_late),
        row("regional sources in 2023", "BR,CO,PA",
             ",".join(sorted(cc for cc in late if cc in {"BR", "CO", "PA"}))),
    ]
    return Exhibit("fig16", "Root DNS servers serving Venezuela, by country", rows)


@register("fig17")
def fig17_probe_coverage(scenario: Scenario) -> Exhibit:
    """Fig. 17 (Appendix F): RIPE Atlas probes per country."""
    panel = probe_count_panel(scenario.chaos_observations)
    total = panel.regional_sum()
    start, end = Month(2016, 1), Month(2024, 1)
    rows = [
        row("VE probes 2016", 10, panel["VE"][start]),
        row("VE probes latest", 30, panel["VE"][end]),
        row("VE rank in region (latest)", 6, panel.rank_in_month("VE", end)),
        row("regional probes 2016", 300, total[start]),
        row("regional probes latest", 450, total[end]),
        row(
            "probes hosted by CANTV",
            8,
            float(sum(1 for p in scenario.probes.active(end, "VE") if p.asn == 8048)),
        ),
    ]
    return Exhibit("fig17", "RIPE Atlas coverage of the LACNIC region", rows)
