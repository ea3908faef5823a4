"""The precomputed artifact plane: surface, sealing, content addressing."""

import hashlib
from collections import Counter

import dataclasses
import pytest

from repro.atlas import traceroute
from repro.core import Scenario, exhibit_ids
from repro.geo.countries import LACNIC_CODES
from repro.ipv6.model import AdoptionDataset
from repro.mlab import aggregate
from repro.obs import get_registry
from repro.peeringdb.archive import PeeringDBArchive
from repro.rootdns import analysis
from repro.serve.artifacts import (
    ArtifactStore,
    build_artifact_store,
    canonical_params,
    path_for,
    static_surface,
)
from repro.serve.handlers import ServeContext
from repro.serve.pool import ScenarioPool
from repro.serve.router import etag_for
from repro.telegeography.model import CableMap


def test_surface_enumerates_the_whole_static_api():
    surface = static_surface()
    endpoints = [endpoint for endpoint, _ in surface]
    assert endpoints.count("exhibits") == 1
    assert endpoints.count("report") == 1
    assert endpoints.count("narrative") == 1
    assert endpoints.count("exhibit") == len(exhibit_ids())
    assert endpoints.count("scorecard") == len(LACNIC_CODES)
    # Every (endpoint, params) pair maps to a distinct path.
    paths = [path_for(endpoint, params) for endpoint, params in surface]
    assert len(set(paths)) == len(paths)


def test_store_covers_the_surface(artifact_plane):
    _, store = artifact_plane
    assert len(store) == len(static_surface())
    assert store.total_bytes == sum(len(a.body) for a in store)


def test_store_is_sealed(artifact_plane):
    _, store = artifact_plane
    artifact = store.get("/v1/report")
    assert artifact is not None
    with pytest.raises(dataclasses.FrozenInstanceError):
        artifact.body = b"tampered"
    with pytest.raises(TypeError):
        store._by_path["/v1/report"] = artifact


def test_etag_is_the_content_address(artifact_plane):
    _, store = artifact_plane
    for artifact in store:
        assert artifact.etag == etag_for(artifact.body)
        assert artifact.sha256 == hashlib.sha256(artifact.body).hexdigest()


def test_find_canonicalizes_scorecard_case(artifact_plane):
    _, store = artifact_plane
    upper = store.find("scorecard", {"country": "VE"})
    lower = store.find("scorecard", {"country": "ve"})
    assert upper is not None and upper is lower
    assert canonical_params("scorecard", {"country": "ar"}) == {"country": "AR"}


def test_find_misses_cleanly(artifact_plane):
    _, store = artifact_plane
    assert store.find("scorecard", {"country": "US"}) is None
    assert store.find("exhibit", {"exhibit_id": "nope"}) is None
    assert store.get("/v1/nope") is None


def test_fingerprint_is_the_manifest_digest(artifact_plane):
    _, store = artifact_plane
    pairs = sorted((a.path, a.sha256) for a in store)
    digest = hashlib.sha256()
    for path, sha in pairs:
        digest.update(path.encode("utf-8") + b"\0" + sha.encode("ascii") + b"\n")
    assert store.fingerprint() == digest.hexdigest()


def test_a_seal_computes_each_exhibit_and_scorecard_panel_once(
    artifact_plane, monkeypatch
):
    # /v1/report and the 23 /v1/exhibit/<id> share one computation per
    # exhibit, and the exhibits, findings and 33 scorecards share one
    # computation of each region-wide intermediate: on a fresh scenario
    # a whole seal runs 23 exhibits and each panel function once.
    calls: Counter = Counter()

    def spy(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spied = [
        (PeeringDBArchive, "facility_count_panel"),
        (CableMap, "count_panel"),
        (AdoptionDataset, "panel"),
        (analysis, "replica_count_panel"),
        (aggregate, "median_download_panel"),
        (traceroute, "min_rtt_per_probe_month"),
    ]
    for owner, name in spied:
        spy(owner, name)

    pool = ScenarioPool()
    pool.seed(Scenario())
    runs = get_registry().counter("exhibit.runs")
    before = runs.value
    store = build_artifact_store(ServeContext(pool=pool))
    assert runs.value - before == len(exhibit_ids())
    assert calls == {name: 1 for _, name in spied}
    assert store.fingerprint() == artifact_plane[1].fingerprint()


@pytest.mark.parametrize("workers", [0, 2])
def test_the_seal_accepts_only_one_worker(artifact_plane, workers):
    context, _store = artifact_plane
    with pytest.raises(ValueError, match="workers must be 1"):
        build_artifact_store(context, workers=workers)
