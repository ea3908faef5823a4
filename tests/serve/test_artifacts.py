"""The precomputed artifact plane: surface, sealing, content addressing."""

import hashlib

import dataclasses
import pytest

from repro.core import exhibit_ids
from repro.geo.countries import LACNIC_CODES
from repro.serve.artifacts import (
    ArtifactStore,
    canonical_params,
    path_for,
    static_surface,
)
from repro.serve.router import etag_for


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


def test_manifest_lists_every_artifact(artifact_plane):
    _, store = artifact_plane
    manifest = store.manifest()
    assert manifest["schema"] == "repro.artifacts/1"
    assert manifest["fingerprint"] == store.fingerprint()
    assert manifest["count"] == len(store)
    assert manifest["total_bytes"] == store.total_bytes
    paths = [entry["path"] for entry in manifest["artifacts"]]
    assert paths == sorted(paths)
    assert len(paths) == len(store)
