"""Section 6 / Appendix I exhibits: Figs. 8-10, 21 and Table 1."""

from __future__ import annotations

from repro.apnic.synthetic import VE_TOP10
from repro.bgp.synthetic import US_REGISTERED_PROVIDERS, provider_name
from repro.core.exhibit import Exhibit, register, row
from repro.core.scenario import Scenario
from repro.ixp.coverage import (
    country_us_presence,
    eyeball_coverage_pct,
    ixp_coverage_heatmap,
    largest_ixp_per_country,
    us_presence_heatmap,
)
from repro.registry.address_plan import AS_CANTV
from repro.timeseries.month import Month


@register("fig08")
def fig08_cantv_degree(scenario: Scenario) -> Exhibit:
    """Fig. 8: CANTV's upstream and downstream counts over time."""
    archive = scenario.asrel
    ups = archive.upstream_count_series(AS_CANTV)
    downs = archive.downstream_count_series(AS_CANTV)
    rows = [
        row("peak upstream providers", 11, ups.max()),
        row("upstreams in January 2013", 11, ups[Month(2013, 1)]),
        row("upstream trough (2020)", 3, ups[Month(2020, 6)]),
        row("upstreams at end (rebound)", None, ups.last_value()),
        row("downstreams in 2000", 0, downs[Month(2000, 6)]),
        row("downstreams at end", 20, downs.last_value()),
    ]
    return Exhibit("fig08", "CANTV-AS8048 upstream/downstream connectivity", rows)


@register("fig09")
def fig09_transit_roster(scenario: Scenario) -> Exhibit:
    """Fig. 9: providers serving transit to CANTV for >12 months."""
    archive = scenario.asrel
    providers = archive.providers_serving(AS_CANTV, min_months=12)
    final = archive[archive.months()[-1]].upstreams_of(AS_CANTV)
    us_final = sorted(final & US_REGISTERED_PROVIDERS)

    def last_service(asn: int) -> Month:
        return archive.provider_intervals(AS_CANTV, asn)[-1][1]

    rows = [
        row("providers in roster (>12 months)", 18, len(providers)),
        row("US providers still serving at end", 1, len(us_final)),
        row("the remaining US provider", "Columbus Networks (23520)",
             ", ".join(f"{provider_name(a)} ({a})" for a in us_final)),
        row("Verizon-701 departs", "2013", str(last_service(701).year)),
        row("Sprint-1239 departs", "2013", str(last_service(1239).year)),
        row("AT&T-7018 departs", "2013", str(last_service(7018).year)),
        row("GTT-3257 departs", "2017", str(last_service(3257).year)),
        row("GTT-4436 departs", "2017", str(last_service(4436).year)),
        row("Level3-3356 departs", "2018", str(last_service(3356).year)),
        row("Level3-3549 departs", "2018", str(last_service(3549).year)),
        row("Telecom Italia-6762 serves to the end", "yes",
             "yes" if 6762 in final else "no"),
        row("Gold Data-28007 is a recent addition", "yes",
             "yes" if archive.provider_intervals(AS_CANTV, 28007)[0][0] >= Month(2021, 1)
             else "no"),
    ]
    return Exhibit("fig09", "CANTV's transit providers over time", rows)


@register("fig10")
def fig10_latam_ixps(scenario: Scenario) -> Exhibit:
    """Fig. 10: eyeball coverage of the largest IXP per country."""
    snapshot = scenario.peeringdb.latest()
    estimates = scenario.populations
    largest = largest_ixp_per_country(snapshot, estimates)
    heatmap = ixp_coverage_heatmap(snapshot, estimates)
    ve_cells = [key for key in heatmap if key[0] == "VE"]
    rows = [
        row("AR-IX coverage of Argentina (%)", 62.4,
             eyeball_coverage_pct(snapshot, estimates, "AR-IX", "AR")),
        row("IX.br coverage of Brazil (%)", 45.53,
             eyeball_coverage_pct(snapshot, estimates, "IX.br (SP)", "BR")),
        row("PIT Chile coverage of Chile (%)", 49.57,
             eyeball_coverage_pct(snapshot, estimates, "PIT Chile (SCL)", "CL")),
        row("VE rows in the largest-IXP heatmap", 0, len(ve_cells)),
        row("VE coverage via Equinix Bogota (%)", 4.0,
             eyeball_coverage_pct(snapshot, estimates, "Equinix Bogota", "VE")),
        row("countries with a largest IXP", None, len(largest)),
        row("Venezuela hosts an IXP", "no", "no" if "VE" not in largest else "yes"),
        row("Uruguay present abroad (AR-IX, %)", 78.96,
             eyeball_coverage_pct(snapshot, estimates, "AR-IX", "UY")),
    ]
    return Exhibit("fig10", "Eyeball coverage of Latin American IXPs", rows)


@register("fig21")
def fig21_us_ixps(scenario: Scenario) -> Exhibit:
    """Fig. 21 (Appendix I): Latin American networks at US exchanges."""
    snapshot = scenario.peeringdb.latest()
    estimates = scenario.populations
    ve_networks, ve_pct = country_us_presence(snapshot, estimates, "VE")
    uy_networks, uy_pct = country_us_presence(snapshot, estimates, "UY")
    heatmap = us_presence_heatmap(snapshot, estimates)
    br_exchanges = sorted({ix for (cc, ix) in heatmap if cc == "BR"})
    mx_exchanges = sorted({ix for (cc, ix) in heatmap if cc == "MX"})
    uy_exchanges = sorted({ix for (cc, ix) in heatmap if cc == "UY"})
    rows = [
        row("VE networks at US IXPs", 7, ve_networks),
        row("VE eyeballs via US IXPs (%)", 7.0, ve_pct),
        row("UY distinct networks in the US", None, uy_networks),
        row("UY eyeballs via US IXPs (%)", None, uy_pct),
        row("UY concentrates at few exchanges", "<=4", len(uy_exchanges)),
        row("BR present across many exchanges", ">=5", len(br_exchanges)),
        row("MX present across many exchanges", ">=3", len(mx_exchanges)),
    ]
    return Exhibit("fig21", "Latin American networks at IXPs in the US", rows)


@register("table1")
def table1_ve_market(scenario: Scenario) -> Exhibit:
    """Table 1 (Appendix A): the ten largest Venezuelan ISPs."""
    estimates = scenario.populations
    rows: list[dict[str, object]] = []
    for paper_entry, measured in zip(VE_TOP10, estimates.top_networks("VE", 10)):
        paper_asn, paper_name, paper_users = paper_entry
        rows.append(
            {
                "asn": measured.asn,
                "name": measured.name,
                "users": measured.users,
                "share_pct": round(estimates.share_of(measured.asn, "VE") * 100, 2),
                "paper_asn": paper_asn,
                "paper_users": paper_users,
            }
        )
    top10_share = sum(
        estimates.share_of(e.asn, "VE") for e in estimates.top_networks("VE", 10)
    )
    rows.append(
        {
            "asn": None,
            "name": "top-10 total",
            "users": sum(e.users for e in estimates.top_networks("VE", 10)),
            "share_pct": round(top10_share * 100, 2),
            "paper_asn": None,
            "paper_users": 15_552_683,
        }
    )
    return Exhibit(
        "table1",
        "Ten largest Internet service providers in Venezuela",
        rows,
        notes="paper: CANTV 21.50%, top-10 77.18% of the market",
    )
