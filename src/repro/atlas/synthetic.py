"""Synthetic probe registry and measurement campaigns.

The probe fleet is calibrated to Fig. 17: roughly 300 regional probes in
2016 growing to 450 by 2024, with Venezuela rising from 10 to 30 (ranked
6th in the region at the end) and CANTV hosting exactly 8 of them.

Two campaign generators replay the paper's data collection:

* :func:`synthesize_gpdns_columns` -- the platform-wide traceroutes to
  8.8.8.8 (Fig. 12 / Fig. 20), with per-probe RTTs from
  :mod:`repro.atlas.rttmodel`.
* :func:`synthesize_chaos_columns` -- the built-in CHAOS TXT queries to
  the 13 roots (Fig. 6 / 16 / 17), with anycast site selection modelled
  as domestic-first round-robin, a pre-2021 US/EU routing policy for
  probes lacking domestic sites, and a post-2020 regional shift to
  Brazil, Colombia and Panama (the Fig. 16 transition).
"""

from __future__ import annotations

import datetime as _dt
from typing import Iterable, Sequence

import numpy as np

from repro.atlas.columns import ChaosColumns, TracerouteColumns
from repro.atlas.probes import Probe, ProbeRegistry
from repro.atlas.rttmodel import (
    CAMPAIGN_END,
    CAMPAIGN_START,
    GPDNS_MSM_ID,
    gpdns_probe_rtt,
)
from repro.geo.countries import country as geo_country
from repro.geo.venezuela import VE_CITIES
from repro.obs import get_registry
from repro.rootdns.deployment import RootDeployment, RootSite
from repro.rootdns.naming import ROOT_LETTERS
from repro.timeseries.month import Month, month_range

#: cc -> (active probes at 2016-01, active probes at 2024-01).
_PROBE_TARGETS: dict[str, tuple[int, int]] = {
    "BR": (108, 120),
    "AR": (40, 55),
    "MX": (30, 42),
    "CL": (27, 38),
    "CO": (20, 35),
    "UY": (8, 15),
    "PE": (10, 20),
    "EC": (6, 12),
    "PA": (5, 10),
    "CR": (5, 10),
    "DO": (4, 8),
    "GT": (3, 6),
    "PY": (3, 6),
    "BO": (3, 6),
    "HN": (2, 4),
    "NI": (2, 4),
    "SV": (2, 4),
    "TT": (2, 4),
    "CU": (1, 2),
    "HT": (1, 2),
    "GY": (1, 2),
    "SR": (1, 2),
    "BZ": (1, 2),
    "CW": (2, 4),
    "AW": (1, 2),
    "GF": (2, 3),
    "BQ": (1, 2),
}

#: The Venezuelan fleet: (city name, asn, first month).  Eight probes sit
#: in CANTV (AS8048); the lowest-latency ones are on small western access
#: networks that do not use CANTV as upstream (Section 7.2 / Appendix J).
_VE_PROBES: tuple[tuple[str, int, str], ...] = (
    ("Caracas", 8048, "2014-03"),
    ("Caracas", 8048, "2014-03"),
    ("Caracas", 8048, "2015-01"),
    ("Caracas", 8048, "2015-06"),
    ("Caracas", 8048, "2016-01"),
    ("Caracas", 8048, "2016-01"),
    ("Valencia", 8048, "2015-03"),
    ("Barquisimeto", 8048, "2015-09"),
    ("Maracaibo", 61461, "2015-01"),
    ("San Cristobal", 274010, "2015-06"),
    ("Caracas", 21826, "2017-01"),
    ("Maracay", 21826, "2017-06"),
    ("Caracas", 264628, "2018-01"),
    ("Maracaibo", 61461, "2018-06"),
    ("Merida", 274011, "2019-01"),
    ("Caracas", 11562, "2019-06"),
    ("Barcelona", 263703, "2020-01"),
    ("Ciudad Guayana", 264731, "2020-06"),
    ("Maturin", 264731, "2021-01"),
    ("Cabimas", 61461, "2021-06"),
    ("San Antonio del Tachira", 274012, "2022-01"),
    ("San Cristobal", 274013, "2022-03"),
    ("Maracaibo", 274014, "2022-06"),
    ("Caracas", 264628, "2022-09"),
    ("Valencia", 272809, "2022-12"),
    ("Caracas", 274015, "2023-02"),
    ("Merida", 274016, "2023-04"),
    ("Caracas", 21826, "2023-06"),
    ("Barquisimeto", 274017, "2023-08"),
    ("Caracas", 274018, "2023-10"),
)

_EXPANSION_START = Month(2016, 7)
_EXPANSION_END = Month(2023, 6)


def _ve_probes() -> list[Probe]:
    cities = {c.name: c for c in VE_CITIES}
    probes = []
    for i, (city_name, asn, start) in enumerate(_VE_PROBES):
        city = cities[city_name]
        probes.append(
            Probe(
                probe_id=1000 + i,
                country="VE",
                asn=asn,
                lat=city.lat + (i % 5) * 0.01,
                lon=city.lon - (i % 3) * 0.01,
                start=Month.parse(start),
            )
        )
    return probes


def synthesize_probe_registry() -> ProbeRegistry:
    """Build the calibrated regional probe fleet."""
    probes = _ve_probes()
    expansion_months = _EXPANSION_START.months_until(_EXPANSION_END)
    for index, cc in enumerate(sorted(_PROBE_TARGETS)):
        start_count, end_count = _PROBE_TARGETS[cc]
        home = geo_country(cc)
        base_id = 10_000 + index * 500
        total_new = end_count - start_count
        for i in range(end_count):
            if i < start_count:
                start = CAMPAIGN_START
            else:
                step = (i - start_count) / max(1, total_new - 1) if total_new > 1 else 0.0
                start = _EXPANSION_START.plus(round(step * expansion_months))
            probes.append(
                Probe(
                    probe_id=base_id + i,
                    country=cc,
                    asn=0,
                    lat=home.lat + (i % 7) * 0.05,
                    lon=home.lon - (i % 5) * 0.05,
                    start=start,
                )
            )
    return ProbeRegistry(probes)


# ---------------------------------------------------------------------------
# GPDNS traceroute campaign
# ---------------------------------------------------------------------------

GPDNS_ADDR = "8.8.8.8"


def synthesize_gpdns_columns(
    registry: ProbeRegistry,
    start: Month = CAMPAIGN_START,
    end: Month = CAMPAIGN_END,
    samples_per_month: int = 2,
    countries: Sequence[str] | None = None,
) -> TracerouteColumns:
    """Replay the monthly 5-day windows of the GPDNS campaign, columnar.

    The first sample of each probe-month carries the model's minimum RTT;
    later samples add congestion, so per-probe monthly minima recover the
    model exactly.  Per-probe base RTTs still come from the scalar
    :func:`gpdns_probe_rtt` (bit-identical to the row generator); only
    the sample expansion, timestamps and record packing are vectorized.

    Emitted rows land in the ``atlas.traceroutes.rows_emitted`` counter,
    tallied per month batch so the hot loop stays unburdened.
    """
    wanted = {c.upper() for c in countries} if countries else None
    probes = [
        p for p in registry.probes if wanted is None or p.country in wanted
    ]
    country_pool = sorted({p.country for p in probes})
    cc_code = {cc: i for i, cc in enumerate(country_pool)}
    pid = np.array([p.probe_id for p in probes], dtype=np.int64)
    cc_idx = np.array([cc_code[p.country] for p in probes], dtype=np.uint16)
    start_ord = np.array([p.start.ordinal() for p in probes], dtype=np.int64)
    never = np.iinfo(np.int64).max
    end_ord = np.array(
        [p.end.ordinal() if p.end is not None else never for p in probes],
        dtype=np.int64,
    )
    s = samples_per_month
    # congestion factor 1.0 + 0.08 * sample and the timestamp offset of
    # datetime(year, month, 1 + sample, 6 * (sample % 4), utc) relative
    # to the first of the month — the exact arithmetic of the row code.
    congestion = 1.0 + 0.08 * np.arange(s, dtype=np.float64)
    day_offsets = (
        np.arange(s, dtype=np.int64) * 86_400
        + (np.arange(s, dtype=np.int64) % 4) * 21_600
    )
    sample_ids = np.arange(s, dtype=np.uint8)
    epoch = _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc)
    chunks: dict[str, list[np.ndarray]] = {
        name: [] for name in TracerouteColumns.COLUMNS
    }
    emitted = 0
    for month in month_range(start, end):
        mo = month.ordinal()
        active = np.flatnonzero((start_ord <= mo) & (mo <= end_ord))
        if active.size == 0 or s == 0:
            continue
        base = np.array(
            [gpdns_probe_rtt(probes[j], month) for j in active.tolist()],
            dtype=np.float64,
        )
        month_ts = int(
            (
                _dt.datetime(month.year, month.month, 1, tzinfo=_dt.timezone.utc)
                - epoch
            ).total_seconds()
        )
        n = active.size
        emitted += n * s
        chunks["probe_id"].append(np.repeat(pid[active], s))
        chunks["country_idx"].append(np.repeat(cc_idx[active], s))
        chunks["month_ordinal"].append(np.full(n * s, mo, dtype=np.int32))
        chunks["sample"].append(np.tile(sample_ids, n))
        chunks["timestamp"].append(np.tile(month_ts + day_offsets, n))
        chunks["final_rtt"].append((base[:, None] * congestion[None, :]).ravel())
    if emitted:
        get_registry().counter("atlas.traceroutes.rows_emitted").inc(emitted)
    empty_dtypes = {
        "probe_id": np.int64,
        "country_idx": np.uint16,
        "month_ordinal": np.int32,
        "sample": np.uint8,
        "timestamp": np.int64,
        "final_rtt": np.float64,
    }
    columns = {
        name: np.concatenate(parts)
        if parts
        else np.empty(0, dtype=empty_dtypes[name])
        for name, parts in chunks.items()
    }
    return TracerouteColumns(
        countries=country_pool,
        msm_id=GPDNS_MSM_ID,
        dst_addr=GPDNS_ADDR,
        **columns,
    )


# ---------------------------------------------------------------------------
# CHAOS campaign
# ---------------------------------------------------------------------------

#: Pre-transition routing for probes without a domestic site: a handful of
#: letters resolve to European instances, the rest to the US.
_EU_POLICY: dict[str, str] = {"K": "GB", "D": "DE", "F": "FR", "I": "SE", "L": "NL", "E": "NL"}
#: After the regional shift, these letters serve from Latin American hubs.
_REGIONAL_POLICY: dict[str, tuple[str, ...]] = {
    "L": ("BR", "US"),
    "F": ("BR", "US"),
    "I": ("BR", "US"),
    "D": ("BR", "US"),
    "K": ("CO", "US"),
    "J": ("PA", "US"),
    "E": ("PA", "US"),
}
#: Month at which anycast routing shifts from US/EU to regional hubs.
REGIONAL_SHIFT = Month(2020, 7)


def _index_sites(
    deployment: RootDeployment, month: Month, letters: list[str]
) -> dict[str, tuple[list[RootSite], dict[str, list[RootSite]]]]:
    """Per letter: (all active sites, active sites grouped by country)."""
    index: dict[str, tuple[list[RootSite], dict[str, list[RootSite]]]] = {}
    for letter in letters:
        active = deployment.active_sites(month, letter)
        by_country: dict[str, list[RootSite]] = {}
        for site in active:
            by_country.setdefault(site.country, []).append(site)
        index[letter] = (active, by_country)
    return index


def _serving_site(
    probe: Probe, letter: str, month: Month, deployment: RootDeployment
) -> RootSite | None:
    active = deployment.active_sites(month, letter)
    if not active:
        return None
    domestic = [s for s in active if s.country == probe.country]
    if domestic:
        return domestic[probe.probe_id % len(domestic)]
    if month < REGIONAL_SHIFT:
        preference: tuple[str, ...] = (_EU_POLICY.get(letter, "US"), "US")
    else:
        preference = _REGIONAL_POLICY.get(letter, ("US",))
    for cc in preference:
        candidates = [s for s in active if s.country == cc]
        if candidates:
            return candidates[probe.probe_id % len(candidates)]
    return active[probe.probe_id % len(active)]


def _selection_table(
    letter: str,
    active_sites: list[tuple[str, int]],
    country_pool: list[str],
    regional: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened per-probe-country candidate lists for one (letter, month).

    ``active_sites`` is the month's active (site country, answer code)
    list in deployment order.  For probe country ``i`` the candidates
    are ``flat[base[i] : base[i] + length[i]]`` and a probe picks
    ``candidates[probe_id % length[i]]`` — exactly the domestic-first /
    policy-preference / all-active fallback chain of the row generator.
    """
    by_country: dict[str, list[int]] = {}
    for site_country, code in active_sites:
        by_country.setdefault(site_country, []).append(code)
    all_codes = [code for _cc, code in active_sites]
    flat: list[int] = []
    base = np.empty(len(country_pool), dtype=np.int64)
    length = np.empty(len(country_pool), dtype=np.int64)
    for i, probe_country in enumerate(country_pool):
        candidates = by_country.get(probe_country)
        if not candidates:
            if not regional:
                preference: tuple[str, ...] = (_EU_POLICY.get(letter, "US"), "US")
            else:
                preference = _REGIONAL_POLICY.get(letter, ("US",))
            for cc in preference:
                fallback = by_country.get(cc)
                if fallback:
                    candidates = fallback
                    break
            if not candidates:
                candidates = all_codes
        base[i] = len(flat)
        length[i] = len(candidates)
        flat.extend(candidates)
    return np.asarray(flat, dtype=np.int64), base, length


def synthesize_chaos_columns(
    registry: ProbeRegistry,
    deployment: RootDeployment,
    start: Month = Month(2016, 1),
    end: Month = Month(2024, 1),
    letters: Iterable[str] = ROOT_LETTERS,
    countries: Sequence[str] | None = None,
) -> ChaosColumns:
    """Replay the monthly built-in CHAOS snapshots as packed columns.

    One representative answer per (probe, letter, month) stands in for
    the 5-day batch the paper keeps.  Site selection is the row
    generator's logic turned into per-country candidate tables: for each
    (month, letter) the table maps a probe country to its candidate
    answer list (domestic sites, else the policy preference chain, else
    every active site) and the whole probe fleet indexes it with
    ``probe_id % len(candidates)`` in one vector operation.  Tables are
    memoised on the active-site set, which only changes when the
    deployment schedule does.

    Emitted rows land in the ``atlas.chaos.rows_emitted`` counter.
    """
    wanted = {c.upper() for c in countries} if countries else None
    letter_list = [letter.upper() for letter in letters]
    probes = [
        p for p in registry.probes if wanted is None or p.country in wanted
    ]
    country_pool = sorted({p.country for p in probes})
    cc_code = {cc: i for i, cc in enumerate(country_pool)}
    pid = np.array([p.probe_id for p in probes], dtype=np.int64)
    cc_idx = np.array([cc_code[p.country] for p in probes], dtype=np.uint16)
    start_ord = np.array([p.start.ordinal() for p in probes], dtype=np.int64)
    never = np.iinfo(np.int64).max
    end_ord = np.array(
        [p.end.ordinal() if p.end is not None else never for p in probes],
        dtype=np.int64,
    )

    # Per letter: site activity windows, hosting countries and answer
    # codes, in deployment order (the order active_sites() preserves).
    answer_pool: list[str] = []
    answer_code: dict[str, int] = {}
    site_info: dict[str, tuple[np.ndarray, np.ndarray, list[tuple[str, int]]]] = {}
    for letter in letter_list:
        sites = [s for s in deployment.sites if s.letter == letter]
        starts = np.array([s.start.ordinal() for s in sites], dtype=np.int64)
        ends = np.array(
            [s.end.ordinal() if s.end is not None else never for s in sites],
            dtype=np.int64,
        )
        rows: list[tuple[str, int]] = []
        for site in sites:
            answer = site.chaos_string()
            code = answer_code.get(answer)
            if code is None:
                code = len(answer_pool)
                answer_code[answer] = code
                answer_pool.append(answer)
            rows.append((site.country, code))
        site_info[letter] = (starts, ends, rows)

    tables: dict[
        tuple[int, bytes, bool], tuple[np.ndarray, np.ndarray, np.ndarray]
    ] = {}
    chunks: dict[str, list[np.ndarray]] = {
        name: [] for name in ChaosColumns.COLUMNS
    }
    emitted = 0
    for month in month_range(start, end):
        mo = month.ordinal()
        active_probes = np.flatnonzero((start_ord <= mo) & (mo <= end_ord))
        if active_probes.size == 0:
            continue
        pids_m = pid[active_probes]
        cc_m = cc_idx[active_probes]
        regional = month >= REGIONAL_SHIFT
        answer_columns: list[np.ndarray] = []
        letter_ids: list[int] = []
        for li, letter in enumerate(letter_list):
            starts, ends, rows = site_info[letter]
            if starts.size == 0:
                continue
            active_sites = np.flatnonzero((starts <= mo) & (mo <= ends))
            if active_sites.size == 0:
                continue
            key = (li, active_sites.tobytes(), regional)
            table = tables.get(key)
            if table is None:
                table = _selection_table(
                    letter,
                    [rows[j] for j in active_sites.tolist()],
                    country_pool,
                    regional,
                )
                tables[key] = table
            flat, bases, lengths = table
            answer_columns.append(flat[bases[cc_m] + pids_m % lengths[cc_m]])
            letter_ids.append(li)
        if not answer_columns:
            continue
        n = active_probes.size
        width = len(letter_ids)
        emitted += n * width
        # Row order: probe-major, letter-minor — the row generator's
        # nesting — so stack per-letter columns and ravel row-wise.
        chunks["answer_idx"].append(
            np.stack(answer_columns, axis=1).ravel().astype(np.int32)
        )
        chunks["letter_idx"].append(
            np.tile(np.array(letter_ids, dtype=np.uint8), n)
        )
        chunks["probe_id"].append(np.repeat(pids_m, width))
        chunks["probe_country_idx"].append(np.repeat(cc_m, width))
        chunks["month_ordinal"].append(np.full(n * width, mo, dtype=np.int32))
    if emitted:
        get_registry().counter("atlas.chaos.rows_emitted").inc(emitted)
    empty_dtypes = {
        "month_ordinal": np.int32,
        "probe_id": np.int64,
        "probe_country_idx": np.uint16,
        "letter_idx": np.uint8,
        "answer_idx": np.int32,
    }
    columns = {
        name: np.concatenate(parts)
        if parts
        else np.empty(0, dtype=empty_dtypes[name])
        for name, parts in chunks.items()
    }
    return ChaosColumns(
        countries=country_pool,
        letters=letter_list,
        answers=answer_pool,
        **columns,
    )

