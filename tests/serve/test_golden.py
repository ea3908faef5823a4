"""The golden bytes: the default world's report and sealed plane, pinned.

Every change that keeps ``repro report`` and the ``/v1/*`` surface
byte-identical keeps these two digests.  A change that moves an output
on purpose updates them here and says so.
"""

import hashlib

from repro.core import Scenario
from repro.core.report import render_report
from repro.exec import DatasetCache
from repro.obs import get_registry
from repro.serve.artifacts import build_artifact_store
from repro.serve.handlers import ServeContext
from repro.serve.pool import ScenarioPool

#: sha256 of ``repro report`` stdout on the default scenario.
REPORT_SHA256 = "f094f6b573ae52db20c0b59f6c9354351742aa4206d8a7886295532828a7e62b"
#: ``ArtifactStore.fingerprint()`` of the default 59-artifact plane.
PLANE_FINGERPRINT = "cb3ddc24cb5890e4783195af2f540894083abe678d488a52436b316eedc1ec71"


def test_report_bytes_are_golden(scenario):
    stdout = render_report(scenario) + "\n"
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == REPORT_SHA256


def test_sealed_plane_is_golden(artifact_plane):
    _context, store = artifact_plane
    assert len(store) == 59
    assert store.fingerprint() == PLANE_FINGERPRINT


def _seal(scenario):
    pool = ScenarioPool()
    pool.seed(scenario)
    return build_artifact_store(ServeContext(pool=pool))


def test_a_second_pass_over_one_cache_is_golden(scenario, tmp_path):
    # The first pass computes and stores every exhibit, finding and
    # scorecard panel (over the shared scenario's datasets); the second loads
    # them all and must give the same bytes without computing any.
    cache = DatasetCache(tmp_path / "cache")
    first = Scenario(cache=cache, strict=False)
    first._materialised.update(scenario._materialised)
    assert _seal(first).fingerprint() == PLANE_FINGERPRINT
    assert get_registry().counter("scenario.derived.store").value == 32

    get_registry().reset()
    second = Scenario(cache=cache, strict=False)
    stdout = render_report(second) + "\n"
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == REPORT_SHA256
    assert _seal(second).fingerprint() == PLANE_FINGERPRINT
    registry = get_registry()
    assert registry.counter("exhibit.runs").value == 0
    assert registry.counter("scenario.derived.hit").value == 32
    assert registry.counter("scenario.dataset.built").value == 0
