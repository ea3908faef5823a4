"""Section 5.5 / Appendices G-H exhibits: Figs. 7, 18 and 19."""

from __future__ import annotations

from repro.core.exhibit import Exhibit, register, row
from repro.core.scenario import Scenario
from repro.offnets.analysis import country_rank, coverage_pct
from repro.offnets.records import HYPERGIANTS
from repro.webdeps.analysis import adoption_summary, country_order, regional_mean


@register("fig07")
def fig07_offnets(scenario: Scenario) -> Exhibit:
    """Fig. 7: off-net coverage for Google, Akamai, Facebook, Netflix."""
    archive, estimates, orgmap = (
        scenario.offnets,
        scenario.populations,
        scenario.orgmap,
    )
    paper_ranks = {
        "google": (19, 27, 56.88),
        "akamai": (18, 22, 35.74),
        "facebook": (21, 25, 28.33),
        "netflix": (23, 25, 5.87),
    }
    rows = []
    for hg, (p_rank, p_pool, p_avg) in paper_ranks.items():
        rank, pool, avg = country_rank(archive, estimates, orgmap, hg, "VE")
        rows.append(row(f"{hg}: VE rank", f"{p_rank}/{p_pool}", f"{rank}/{pool}"))
        rows.append(row(f"{hg}: VE average coverage (%)", p_avg, avg))
    rows.append(
        row(
            "google covered CANTV before the crisis (2013)",
            "yes",
            "yes" if 8048 in archive.hosting_asns("google", 2013) else "no",
        )
    )
    rows.append(
        row(
            "facebook ever deployed in CANTV",
            "no",
            "yes"
            if any(8048 in archive.hosting_asns("facebook", y) for y in archive.years())
            else "no",
        )
    )
    netflix_cantv_years = [
        y for y in archive.years() if 8048 in archive.hosting_asns("netflix", y)
    ]
    rows.append(
        row(
            "netflix enters CANTV",
            2021,
            netflix_cantv_years[0] if netflix_cantv_years else "never",
        )
    )
    return Exhibit("fig07", "Hypergiant off-net coverage (four majors)", rows)


@register("fig18")
def fig18_all_hypergiants(scenario: Scenario) -> Exhibit:
    """Fig. 18 (Appendix G): all ten hypergiants' off-net footprints."""
    archive, estimates, orgmap = (
        scenario.offnets,
        scenario.populations,
        scenario.orgmap,
    )
    minor = [hg for hg in HYPERGIANTS if hg not in ("google", "akamai", "facebook", "netflix")]
    rows = []
    final_year = archive.years()[-1]
    for hg in minor:
        ve_pct = coverage_pct(archive, estimates, orgmap, hg, "VE", final_year)
        countries = sorted(
            {
                cc
                for cc in estimates.countries()
                if coverage_pct(archive, estimates, orgmap, hg, cc, final_year) > 0
            }
        )
        rows.append(row(f"{hg}: VE coverage (%)", 0.0, ve_pct))
        rows.append(
            row(f"{hg}: LACNIC countries with presence", "minimal", len(countries))
        )
    return Exhibit(
        "fig18",
        "Off-net footprints of the remaining hypergiants",
        rows,
        notes="the paper: minimal LatAm presence, none in Venezuela",
    )


@register("fig19")
def fig19_third_party(scenario: Scenario) -> Exhibit:
    """Fig. 19 (Appendix H): third-party service adoption in top sites."""
    survey = scenario.site_survey
    ve = adoption_summary(survey, "VE")
    rows = [
        row("VE third-party DNS adoption", 0.29, ve.dns),
        row("regional DNS mean", 0.32, regional_mean(survey, "dns")),
        row("VE third-party CA adoption", 0.22, ve.ca),
        row("regional CA mean", 0.26, regional_mean(survey, "ca")),
        row("VE third-party CDN adoption", 0.37, ve.cdn),
        row("regional CDN mean", 0.46, regional_mean(survey, "cdn")),
        row("VE HTTPS adoption", 0.58, ve.https),
        row("regional HTTPS mean", 0.60, regional_mean(survey, "https")),
    ]
    for metric in ("dns", "ca"):
        order = country_order(survey, metric)
        rows.append(
            row(
                f"only Bolivia below VE ({metric})",
                "yes",
                "yes" if order.index("VE") == 1 and order[0] == "BO" else "no",
            )
        )
    cdn_order = country_order(survey, "cdn")
    rows.append(
        row(
            "VE third-lowest for CDN (after BO, PY)",
            "yes",
            "yes" if cdn_order[:3] == ["BO", "PY", "VE"] else "no",
        )
    )
    https_order = country_order(survey, "https")
    rows.append(
        row(
            "VE slightly above bottom for HTTPS",
            "4th of 9",
            f"{https_order.index('VE') + 1}th of {len(https_order)}",
        )
    )
    return Exhibit("fig19", "Third-party provider adoption in popular sites", rows)
