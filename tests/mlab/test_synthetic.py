"""Tests for the synthetic NDT load (Fig. 11)."""

import pytest

from repro.mlab import NDTLoadModel, median_download_panel, median_target
from repro.mlab.synthetic import calibrated_countries, synthesize_ndt_columns
from repro.timeseries import Month, stagnation_months


@pytest.fixture(scope="module")
def panel(scenario):
    return median_download_panel(scenario.ndt_tests)


def test_median_targets_exact():
    # The deterministic calibration curve carries the paper's numbers.
    assert median_target("VE", Month(2023, 7)) == pytest.approx(2.93)
    assert median_target("UY", Month(2023, 7)) == pytest.approx(47.33)
    assert median_target("BR", Month(2023, 7)) == pytest.approx(32.44)
    assert median_target("CL", Month(2023, 7)) == pytest.approx(25.25)
    assert median_target("AR", Month(2023, 7)) == pytest.approx(15.48)
    assert median_target("MX", Month(2023, 7)) == pytest.approx(18.66)


def test_median_target_clamps_outside_window():
    assert median_target("VE", Month(2000, 1)) == median_target("VE", Month(2007, 7))
    assert median_target("VE", Month(2030, 1)) == median_target("VE", Month(2024, 1))


def test_median_target_unknown_country():
    with pytest.raises(KeyError):
        median_target("ZZ", Month(2020, 1))


def test_historical_crossings():
    # "VE's 2023 speed equals UY/MX in Nov 2013, CL Jun 2017, AR Apr 2018,
    # BR Sep 2019."
    ve_2023 = median_target("VE", Month(2023, 7))
    assert median_target("UY", Month(2013, 11)) == pytest.approx(ve_2023)
    assert median_target("MX", Month(2013, 11)) == pytest.approx(ve_2023)
    assert median_target("CL", Month(2017, 6)) == pytest.approx(ve_2023)
    assert median_target("AR", Month(2018, 4)) == pytest.approx(ve_2023)
    assert median_target("BR", Month(2019, 9)) == pytest.approx(ve_2023)


def test_measured_medians_near_targets(panel):
    month = Month(2023, 7)
    for cc in ("VE", "UY", "BR", "CL", "AR", "MX"):
        measured = panel[cc][month]
        target = median_target(cc, month)
        assert measured == pytest.approx(target, rel=0.25), cc


def test_ve_stagnation_over_a_decade(panel):
    smooth = panel["VE"].rolling_mean(3)
    assert stagnation_months(smooth, 1.0) > 120


def test_ve_recovery_since_2022(panel):
    ve = panel["VE"]
    assert ve[Month(2022, 6)] > 1.0
    assert ve[Month(2023, 7)] > 2.0


def test_normalised_trajectory(panel):
    norm = panel.normalised_against_regional_mean("VE")
    assert norm[Month(2009, 6)] > 0.6
    assert norm[Month(2023, 7)] < 0.3


def test_generation_deterministic():
    model = NDTLoadModel(tests_per_month=5, start=Month(2020, 1), end=Month(2020, 3))
    a = [r.to_json() for r in synthesize_ndt_columns(model)]
    b = [r.to_json() for r in synthesize_ndt_columns(model)]
    assert a == b


def test_generation_covers_all_countries():
    model = NDTLoadModel(tests_per_month=2, start=Month(2020, 1), end=Month(2020, 1))
    seen = {r.country for r in synthesize_ndt_columns(model)}
    assert seen == set(calibrated_countries())
    assert "VE" in seen and len(seen) >= 25


def test_asn_attribution_by_market_share(scenario):
    from collections import Counter

    counts = Counter(r.asn for r in scenario.ndt_tests if r.country == "VE")
    total = sum(counts.values())
    # CANTV holds 21.5% of the market; the draw should track it closely.
    assert counts[8048] / total == pytest.approx(0.215, abs=0.02)


def test_cantv_below_newcomers_after_2021(scenario):
    from repro.mlab import median_download_by_asn

    by_asn = median_download_by_asn(
        scenario.ndt_tests, "VE", Month(2022, 7), Month(2023, 7)
    )
    assert by_asn[8048] < by_asn[61461]
    assert by_asn[8048] < by_asn[264628]


def test_network_parity_before_2021(scenario):
    from repro.mlab import median_download_by_asn

    by_asn = median_download_by_asn(
        scenario.ndt_tests, "VE", Month(2018, 1), Month(2020, 12)
    )
    # Before the fibre newcomers, all networks sit on the country curve.
    assert by_asn[8048] == pytest.approx(by_asn[61461], rel=0.35)


def test_by_asn_drops_thin_networks():
    import datetime

    from repro.mlab import NDTResult, median_download_by_asn

    thin = [
        NDTResult(datetime.date(2023, 7, 1), "VE", 999, 1.0, 0.3, 40.0, 0.0)
        for _ in range(3)
    ]
    assert median_download_by_asn(thin, "VE", Month(2023, 7), Month(2023, 7)) == {}
