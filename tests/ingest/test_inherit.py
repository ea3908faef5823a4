"""An ingest apply that inherits from the served world.

The new world takes every dataset the journal left alone and every
memoized value that read only those; it must still equal a from-scratch
apply of the same journal byte for byte, and recompute exactly the
exhibits whose datasets the append changed.
"""

import datetime as dt
import json

import pytest

from repro.core import Scenario, exhibit_ids
from repro.core.report import render_report
from repro.core.scorecard import build_scorecard
from repro.exec import DatasetCache
from repro.ingest.service import IngestService, apply_ingest
from repro.mlab.ndt import NDTResult
from repro.obs import get_registry, parse_openmetrics, render_openmetrics
from repro.serve.artifacts import build_artifact_store
from repro.serve.handlers import ServeContext
from repro.serve.pool import ScenarioPool

SMALL = {"ndt_tests_per_month": 2, "gpdns_samples_per_month": 1}

#: The exhibits an append of each format must recompute, and no other.
RECOMPUTED = {
    "ndt": {"fig11"},
    "atlas": {"fig12", "fig20"},
    "peeringdb": {"fig03", "fig10", "fig15", "fig21", "table2"},
}


def _ndt_batch(country="VE", month=7):
    return [
        NDTResult(
            date=dt.date(2023, month, 5 + i),
            country=country,
            asn=8048,
            download_mbps=3.5,
            upload_mbps=1.2,
            min_rtt_ms=48.0,
            loss_rate=0.02,
        ).to_json()
        for i in range(3)
    ]


def _atlas_batch():
    # Probe 1000 is Venezuelan; 2023-12-10 is inside Fig. 20's month.
    return [
        json.dumps(
            {
                "prb_id": 1000,
                "msm_id": 5005,
                "timestamp": 1_702_166_400 + 3600 * i,
                "dst_addr": "8.8.8.8",
                "result": [
                    {"hop": 1, "result": [{"from": "192.168.1.1", "rtt": 1.4}]},
                    {"hop": 2, "result": [{"from": "8.8.8.8", "rtt": 30.0 + i}]},
                ],
            }
        )
        for i in range(3)
    ]


def _batch(format_name, world):
    """(lines, meta) of a one-month batch in *format_name*."""
    if format_name == "ndt":
        return _ndt_batch(), {}
    if format_name == "atlas":
        return _atlas_batch(), {}
    # A PeeringDB dump for the month after the archive's last one.
    return world.peeringdb.latest().to_json().splitlines(), {"month": "2024-02"}


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return DatasetCache(tmp_path_factory.mktemp("inherit-cache"))


@pytest.fixture(scope="module")
def served(cache):
    """A served SMALL world: built, and its whole plane sealed."""
    world = Scenario(cache=cache, strict=False, **SMALL)
    world.build_all()
    pool = ScenarioPool(cache=cache)
    pool.seed(world, **SMALL)
    context = ServeContext(pool=pool, params=dict(SMALL))
    return world, context, build_artifact_store(context)


@pytest.fixture
def open_service(tmp_path):
    """Factory for journals under *tmp_path*; closes each at teardown."""
    services = []

    def make(name="wal"):
        services.append(IngestService(tmp_path / name, fsync=False))
        return services[-1]

    yield make
    for service in services:
        service.wal.close()


def _recomputed() -> set[str]:
    """Exhibits computed since the registry was last reset."""
    prefix = "exhibit.run."
    return {
        timer.name[len(prefix):]
        for timer in get_registry().timers()
        if timer.name.startswith(prefix)
    }


@pytest.mark.parametrize("format_name", sorted(RECOMPUTED))
def test_an_inheriting_apply_equals_a_fresh_one(
    format_name, served, cache, open_service
):
    world, context, store = served
    service = open_service()
    lines, meta = _batch(format_name, world)
    service.submit(format_name, lines, meta)

    inherited = apply_ingest(
        service, cache, dict(SMALL), strict=False, previous=world
    )
    assert _recomputed() == RECOMPUTED[format_name]
    registry = get_registry()
    assert registry.counter("scenario.dataset.inherited").value == 15
    assert registry.timer("ingest.apply").count == 1

    fresh = apply_ingest(service, cache, dict(SMALL), strict=False)
    assert _recomputed() == set(exhibit_ids())
    assert inherited.fingerprints() == fresh.fingerprints()
    assert inherited.store.fingerprint() != store.fingerprint()
    # The served world is untouched: it still seals its own plane.
    assert build_artifact_store(context).fingerprint() == store.fingerprint()
    assert world.overlay is None


def test_apply_metrics_pass_the_strict_openmetrics_parser(
    served, cache, open_service
):
    world, _context, _store = served
    service = open_service()
    service.submit("ndt", _ndt_batch())
    apply_ingest(service, cache, dict(SMALL), strict=False, previous=world)
    families = parse_openmetrics(render_openmetrics())
    assert {
        "ingest_apply_seconds",
        "scenario_dataset_inherited",
        "scenario_derived_inherited",
    } <= set(families)


@pytest.fixture(scope="module")
def chain_batches():
    return [
        ("ndt", _ndt_batch("VE"), {}),
        ("atlas", _atlas_batch(), {}),
        ("ndt", _ndt_batch("BR"), {}),
    ]


@pytest.fixture(scope="module")
def fresh_chain(cache, chain_batches, tmp_path_factory):
    """From-scratch apply fingerprints after each of the chained batches."""
    service = IngestService(tmp_path_factory.mktemp("fresh-chain"), fsync=False)
    try:
        expected = []
        for format_name, lines, meta in chain_batches:
            service.submit(format_name, lines, meta)
            result = apply_ingest(service, cache, dict(SMALL), strict=False)
            expected.append(result.fingerprints())
        return expected
    finally:
        service.wal.close()


def test_chained_inheriting_applies_equal_fresh_ones(
    served, cache, chain_batches, fresh_chain, open_service
):
    world = served[0]
    service = open_service()
    for (format_name, lines, meta), expected in zip(chain_batches, fresh_chain):
        service.submit(format_name, lines, meta)
        result = apply_ingest(
            service, cache, dict(SMALL), strict=False, previous=world
        )
        assert result.fingerprints() == expected
        world = result.scenario


def _degraded_findings(store) -> list[str]:
    """Topics of the ``/v1/narrative`` findings that are placeholders."""
    findings = json.loads(store.get("/v1/narrative").body)["data"]["findings"]
    return [f["topic"] for f in findings if f["text"].startswith("degraded:")]


def test_a_degraded_dataset_is_rebuilt_and_its_readers_recomputed(
    cache, open_service, monkeypatch
):
    def broken():
        raise OSError("cable map unavailable")

    # No cache: the cached cable map would never reach the generator.
    # The world seals its whole plane, annotating what read the cables.
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.scenario.synthesize_cable_map", broken)
        world = Scenario(strict=False, **SMALL)
        world.build_all()
        assert "COVERAGE: 15/16" in render_report(world)
        assert build_scorecard(world, "VE").degraded_panels == 1
        pool = ScenarioPool()
        pool.seed(world, **SMALL)
        store = build_artifact_store(ServeContext(pool=pool, params=dict(SMALL)))
        # An apply that still cannot build the cables seals around them.
        degraded_service = open_service("degraded-wal")
        degraded_service.submit("ndt", _ndt_batch())
        still = apply_ingest(
            degraded_service, None, dict(SMALL), strict=False, previous=world
        )
    assert [d.name for d in world.degraded()] == ["cables"]
    # The scorecard panel read cables through a derive that raised.
    assert world._derived[("scorecard", "submarine cables")][1] == {"cables"}
    assert len(store) == 59
    assert _degraded_findings(store) == ["infrastructure"]
    assert [d.name for d in still.scenario.degraded()] == ["cables"]
    assert len(still.store) == 59
    assert _degraded_findings(still.store) == ["infrastructure"]

    service = open_service()
    service.submit("ndt", _ndt_batch())
    get_registry().reset()
    inherited = apply_ingest(
        service, cache, dict(SMALL), strict=False, previous=world
    )
    assert inherited.scenario.degraded() == []
    assert _recomputed() == {"fig04", "fig11"}
    assert get_registry().counter("scenario.dataset.inherited").value == 14
    scorecard = json.loads(inherited.store.get("/v1/scorecard/VE").body)["data"]
    assert "degraded" not in scorecard
    assert _degraded_findings(inherited.store) == []

    fresh = apply_ingest(service, cache, dict(SMALL), strict=False)
    assert inherited.fingerprints() == fresh.fingerprints()
