"""Seeded synthetic NDT load calibrated to Fig. 11.

Every country has a target median-download curve defined by log-linearly
interpolated anchors.  The generator draws per-test speeds from a
lognormal distribution whose median equals the target (the median of
``LogNormal(mu, sigma)`` is ``exp(mu)``), which reproduces both the
paper's median trajectories and the heavy upper tail that motivates the
median-vs-mean ablation.

Calibration anchors come straight from Section 7.1: Venezuela below
1 Mbps from 2010 through late 2021 recovering to 2.93 Mbps by July 2023;
Uruguay at 47.33, Brazil 32.44, Chile 25.25, Mexico 18.66 and Argentina
15.48 in July 2023, each passing 2.93 Mbps at the historical month the
paper names (Nov 2013, Sep 2019, Jun 2017, Nov 2013, Apr 2018).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mlab.columns import NDTColumns
from repro.obs import get_registry
from repro.timeseries.month import Month, month_range

WINDOW_START = Month(2007, 7)
WINDOW_END = Month(2024, 1)


def _a(text: str, value: float) -> tuple[Month, float]:
    return (Month.parse(text), value)


#: Per-country median anchors (log-linear interpolation between them).
_MEDIAN_ANCHORS: dict[str, tuple[tuple[Month, float], ...]] = {
    "VE": (
        _a("2007-07", 0.52), _a("2009-06", 0.60), _a("2012-01", 0.65),
        _a("2016-01", 0.55), _a("2019-01", 0.58), _a("2021-10", 0.80),
        _a("2022-02", 1.30), _a("2022-06", 1.80), _a("2023-07", 2.93),
        _a("2024-01", 3.10),
    ),
    "UY": (
        _a("2007-07", 0.55), _a("2013-11", 2.93), _a("2018-01", 15.0),
        _a("2023-07", 47.33), _a("2024-01", 50.0),
    ),
    "BR": (
        _a("2007-07", 0.50), _a("2013-01", 2.00), _a("2019-09", 2.93),
        _a("2021-06", 12.0), _a("2023-07", 32.44), _a("2024-01", 34.0),
    ),
    "CL": (
        _a("2007-07", 0.60), _a("2012-01", 1.80), _a("2017-06", 2.93),
        _a("2020-06", 10.0), _a("2023-07", 25.25), _a("2024-01", 27.0),
    ),
    "AR": (
        _a("2007-07", 0.55), _a("2013-01", 1.80), _a("2018-04", 2.93),
        _a("2021-01", 8.0), _a("2023-07", 15.48), _a("2024-01", 16.5),
    ),
    "MX": (
        _a("2007-07", 0.60), _a("2013-11", 2.93), _a("2019-01", 8.0),
        _a("2023-07", 18.66), _a("2024-01", 19.5),
    ),
}

#: Generic anchors for the rest of the region: (2007, 2015, 2023-07) medians.
_GENERIC_ANCHORS: dict[str, tuple[float, float, float]] = {
    "CO": (0.55, 2.6, 22.0),
    "PE": (0.50, 2.2, 20.0),
    "EC": (0.45, 2.0, 19.0),
    "PA": (0.60, 3.0, 24.0),
    "CR": (0.55, 2.8, 21.0),
    "DO": (0.50, 2.0, 14.0),
    "PY": (0.40, 1.6, 15.0),
    "BO": (0.35, 1.2, 10.0),
    "GT": (0.45, 1.6, 12.0),
    "HN": (0.40, 1.4, 10.0),
    "NI": (0.35, 1.2, 8.0),
    "SV": (0.45, 1.6, 12.0),
    "TT": (0.60, 3.0, 22.0),
    "CU": (0.20, 0.5, 2.5),
    "HT": (0.25, 0.7, 4.0),
    "GY": (0.35, 1.2, 12.0),
    "SR": (0.40, 1.5, 14.0),
    "BZ": (0.40, 1.5, 12.0),
    "CW": (0.70, 4.0, 28.0),
    "AW": (0.70, 4.0, 26.0),
    "GF": (0.60, 3.5, 24.0),
    "BQ": (0.60, 3.0, 20.0),
}

#: Lognormal shape parameter (heavy tail typical of crowd-sourced tests).
SIGMA = 0.9

#: Venezuelan per-network speed multipliers, active once the fibre
#: newcomers launch (Section 7.1: CANTV's legacy plans stagnate while new
#: entrants sell up-to-50-Mbps services).  The generator renormalises the
#: remaining market so the country median stays on its calibrated curve.
VE_NETWORK_MULTIPLIERS: dict[int, float] = {
    8048: 0.75,     # CANTV legacy copper plans
    61461: 1.60,    # Airtek (fibre newcomer)
    264628: 1.50,   # Fibex (fibre newcomer)
}
#: Month the Venezuelan network multipliers switch on.
VE_MULTIPLIER_START = Month(2021, 1)


def _anchors_for(country: str) -> tuple[tuple[Month, float], ...]:
    cc = country.upper()
    if cc in _MEDIAN_ANCHORS:
        return _MEDIAN_ANCHORS[cc]
    if cc in _GENERIC_ANCHORS:
        v2007, v2015, v2023 = _GENERIC_ANCHORS[cc]
        return (
            _a("2007-07", v2007),
            (Month(2015, 1), v2015),
            (Month(2023, 7), v2023),
            (Month(2024, 1), v2023 * 1.05),
        )
    raise KeyError(f"no NDT calibration for country {country!r}")


def calibrated_countries() -> list[str]:
    """All countries the load model can generate tests for."""
    return sorted(set(_MEDIAN_ANCHORS) | set(_GENERIC_ANCHORS))


def median_target(country: str, month: Month) -> float:
    """The calibrated median download speed (Mbps) for a country-month.

    Values are log-linearly interpolated between anchors and clamped flat
    outside the anchored range.
    """
    anchors = _anchors_for(country)
    if month <= anchors[0][0]:
        return anchors[0][1]
    for (m0, v0), (m1, v1) in zip(anchors, anchors[1:]):
        if m0 <= month <= m1:
            frac = m0.months_until(month) / m0.months_until(m1)
            return math.exp(math.log(v0) + frac * (math.log(v1) - math.log(v0)))
    return anchors[-1][1]


@dataclass(frozen=True)
class NDTLoadModel:
    """Configuration of the synthetic test load.

    Attributes:
        seed: RNG seed; identical seeds give identical loads.
        tests_per_month: Samples drawn per country-month.
        start: First generated month.
        end: Last generated month.
    """

    seed: int = 20240804
    tests_per_month: int = 40
    start: Month = WINDOW_START
    end: Month = WINDOW_END


def _market_mixture(cc: str) -> tuple[list[int], list[float]]:
    """The ASN population and draw weights of one country's test load."""
    from repro.apnic.synthetic import synthesize_populations

    estimates = synthesize_populations()
    entries = estimates.country_entries(cc)
    if not entries:
        return [0], [1.0]
    total = sum(e.users for e in entries)
    return [e.asn for e in entries], [e.users / total for e in entries]


def _ve_multipliers(asns: list[int], weights: list[float]) -> np.ndarray:
    """Log-mean-neutral per-ASN multipliers for the Venezuelan market.

    The named networks get their scripted factors; the remaining market is
    scaled so the weighted mean log-multiplier is zero, keeping the country
    median on its calibrated curve.
    """
    log_named = sum(
        w * math.log(VE_NETWORK_MULTIPLIERS[a])
        for a, w in zip(asns, weights)
        if a in VE_NETWORK_MULTIPLIERS
    )
    rest_weight = sum(
        w for a, w in zip(asns, weights) if a not in VE_NETWORK_MULTIPLIERS
    )
    rest_multiplier = math.exp(-log_named / rest_weight) if rest_weight else 1.0
    return np.array(
        [VE_NETWORK_MULTIPLIERS.get(a, rest_multiplier) for a in asns]
    )


def synthesize_ndt_columns(model: NDTLoadModel = NDTLoadModel()) -> NDTColumns:
    """Generate the synthetic test load as packed columns.

    Speeds are lognormal around the calibrated median; RTT and loss are
    drawn with plausible access-network statistics; upload tracks download
    at roughly a third.  Each test is attributed to an access network
    drawn by market share, and from 2021 the Venezuelan networks diverge
    (CANTV below the country curve, the fibre newcomers above it).

    Seed-stream contract: the RNG draws happen per country-month batch in
    the exact order the historical row generator used (choice, lognormal,
    gamma, beta, integers, uniform), so the columns carry bit-for-bit the
    same doubles the row-by-row code yielded — only the per-row object
    construction is gone.  ``tests/mlab/test_seed_stream.py`` pins this
    against the pre-columnar implementation.

    Emitted rows land in the ``mlab.ndt.rows_emitted`` counter, tallied
    per country-month batch (the same granularity the numpy draws use).
    """
    rng = np.random.default_rng(model.seed)
    countries = calibrated_countries()
    mixtures = {cc: _market_mixture(cc) for cc in countries}
    ve_asns, ve_weights = mixtures["VE"]
    ve_mults = _ve_multipliers(ve_asns, ve_weights)
    asn_pools = {cc: np.asarray(asns, dtype=np.int64) for cc, (asns, _w) in mixtures.items()}
    country_code = {cc: i for i, cc in enumerate(countries)}
    n = model.tests_per_month
    chunks: dict[str, list[np.ndarray]] = {name: [] for name in NDTColumns.COLUMNS}
    emitted = 0
    for month in month_range(model.start, model.end):
        ordinal = month.ordinal()
        for cc in countries:
            median = median_target(cc, month)
            mu = math.log(median)
            asns, weights = mixtures[cc]
            asn_idx = rng.choice(len(asns), size=n, p=weights)
            mus = np.full(n, mu)
            if cc == "VE" and month >= VE_MULTIPLIER_START:
                mus = mus + np.log(ve_mults[asn_idx])
            speeds = rng.lognormal(mean=0.0, sigma=SIGMA, size=n)
            speeds = speeds * np.exp(mus)
            rtts = rng.gamma(shape=4.0, scale=12.0, size=n)
            losses = rng.beta(1.0, 200.0, size=n)
            days = rng.integers(1, 28, size=n)
            uploads = speeds * rng.uniform(0.25, 0.45, size=n)
            emitted += n
            chunks["month_ordinal"].append(np.full(n, ordinal, dtype=np.int32))
            chunks["day"].append(days.astype(np.uint8))
            chunks["country_idx"].append(
                np.full(n, country_code[cc], dtype=np.uint16)
            )
            chunks["asn"].append(asn_pools[cc][asn_idx])
            chunks["download_mbps"].append(speeds)
            chunks["upload_mbps"].append(uploads)
            chunks["min_rtt_ms"].append(rtts)
            chunks["loss_rate"].append(losses)
    if emitted:
        get_registry().counter("mlab.ndt.rows_emitted").inc(emitted)
    empty_dtypes = {
        "month_ordinal": np.int32,
        "day": np.uint8,
        "country_idx": np.uint16,
        "asn": np.int64,
    }
    columns = {
        name: np.concatenate(parts)
        if parts
        else np.empty(0, dtype=empty_dtypes.get(name, np.float64))
        for name, parts in chunks.items()
    }
    return NDTColumns(countries=countries, **columns)
