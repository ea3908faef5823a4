"""Synthetic off-net deployment schedules calibrated to the paper.

The Venezuelan schedules encode the paper's narrative directly: Google
and Akamai established (including inside CANTV) before the 2013 downturn;
Facebook never deploys in CANTV; Netflix enters CANTV only in 2021.  The
remaining countries are split, per hypergiant, into an "established early"
tier (top incumbents host from the start of the window) and a "late and
thin" tier, sized so Venezuela's average-coverage rank lands on the
paper's values: Google 19/27, Akamai 18/22, Facebook 21/25 and
Netflix 23/25.  The other six hypergiants have minimal Latin American
footprints and never appear in Venezuela.
"""

from __future__ import annotations

from repro.apnic.model import APNICEstimates
from repro.apnic.synthetic import synthesize_populations
from repro.offnets.as2org import OrgMap
from repro.offnets.records import OffnetArchive, OffnetRecord

#: The artifact window of Gigis et al.
WINDOW_YEARS: tuple[int, ...] = tuple(range(2013, 2022))

#: Venezuelan schedules: hypergiant -> ((asn, first year), ...).
VE_SCHEDULES: dict[str, tuple[tuple[int, int], ...]] = {
    "google": (
        (8048, 2013), (21826, 2013), (6306, 2014), (61461, 2015),
        (11562, 2016), (264731, 2018), (263703, 2019),
    ),
    "akamai": ((8048, 2013), (6306, 2013)),
    "facebook": ((21826, 2013), (6306, 2014), (11562, 2015), (264628, 2018)),
    "netflix": ((21826, 2019), (8048, 2021)),
}

#: Early-tier countries per hypergiant (top incumbents host from the
#: given year); sized so the stated number of countries outrank Venezuela.
_EARLY_TIER: dict[str, tuple[int, int, tuple[str, ...]]] = {
    # hypergiant -> (start year, top-N incumbents, countries)
    "google": (2013, 4, ("AR", "BR", "CL", "CO", "MX", "UY", "PE", "EC", "PA",
                         "CR", "DO", "GT", "PY", "BO", "CW", "TT", "AW", "SV")),
    "akamai": (2013, 3, ("AR", "BR", "CL", "CO", "MX", "UY", "PE", "EC", "PA",
                         "CR", "DO", "GT", "TT", "CW", "PY", "SV", "BO")),
    "facebook": (2014, 3, ("AR", "BR", "CL", "CO", "MX", "UY", "PE", "EC", "PA",
                           "CR", "DO", "GT", "PY", "BO", "TT", "CW", "SV", "HN",
                           "GF", "AW")),
    "netflix": (2015, 3, ("AR", "BR", "CL", "CO", "MX", "UY", "PE", "EC", "PA",
                          "CR", "DO", "GT", "PY", "BO", "TT", "CW", "SV", "HN",
                          "NI", "GF", "AW", "GY")),
}

#: Late-tier countries per hypergiant: thin deployments that stay below
#: Venezuela's average coverage.
_LATE_TIER: dict[str, tuple[int, int, tuple[str, ...]]] = {
    "google": (2019, 1, ("HN", "NI", "CU", "HT", "GY", "SR", "BZ", "GF")),
    "akamai": (2020, 1, ("HN", "NI", "HT", "CU")),
    "facebook": (2020, 1, ("CU", "HT", "GY", "SR")),
}

#: Netflix's late tier is hand-picked (single small ASes) so both
#: countries stay under Venezuela's ~6% average.
_NETFLIX_LATE: tuple[tuple[str, int], ...] = (("HT", 27759),)

#: The six hypergiants with minimal regional presence and none in VE.
_MINOR_HYPERGIANTS: dict[str, tuple[int, tuple[str, ...]]] = {
    "microsoft": (2018, ("BR", "MX")),
    "limelight": (2016, ("BR",)),
    "cdnetworks": (2017, ("MX",)),
    "alibaba": (2020, ("BR",)),
    "amazon": (2019, ("BR", "MX", "AR")),
    "cloudflare": (2018, ("BR", "MX", "AR", "CL")),
}


def synthesize_org_map() -> OrgMap:
    """The as2org+ substitute: sibling groups relevant to the analyses.

    The Venezuelan state group (CANTV + Movilnet) is the one that matters
    for the org-vs-AS ablation: Google deploys in AS8048 only, yet the
    paper's org-level method also credits Movilnet's users.
    """
    return OrgMap(
        sibling_groups=[
            (8048, 27889),                          # Venezuelan state operators
            (6306, 22927, 7418, 27951, 19422, 6147)  # Telefonica subsidiaries
        ]
    )


def _tail_asn_of(estimates: APNICEstimates, cc: str) -> int:
    """The smallest network of a country (its long-tail AS)."""
    entries = estimates.country_entries(cc)
    return entries[-1].asn


def synthesize_offnets(estimates: APNICEstimates | None = None) -> OffnetArchive:
    """Build the calibrated off-net archive over 2013-2021."""
    if estimates is None:
        estimates = synthesize_populations()
    records: list[OffnetRecord] = []

    def deploy(hg: str, asn: int, first_year: int) -> None:
        for year in WINDOW_YEARS:
            if year >= first_year:
                records.append(OffnetRecord(year, hg, asn))

    for hg, schedule in VE_SCHEDULES.items():
        for asn, first_year in schedule:
            deploy(hg, asn, first_year)

    for hg, (start, top_n, countries) in _EARLY_TIER.items():
        for cc in countries:
            for entry in estimates.top_networks(cc, top_n):
                deploy(hg, entry.asn, start)

    for hg, (start, top_n, countries) in _LATE_TIER.items():
        for cc in countries:
            for entry in estimates.top_networks(cc, top_n):
                deploy(hg, entry.asn, start)

    for cc, asn in _NETFLIX_LATE:
        deploy("netflix", asn, 2021)
    deploy("netflix", _tail_asn_of(estimates, "CU"), 2021)

    for hg, (start, countries) in _MINOR_HYPERGIANTS.items():
        for cc in countries:
            top = estimates.top_networks(cc, 1)
            deploy(hg, top[0].asn, start)

    return OffnetArchive(records)
