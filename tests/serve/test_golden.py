"""The golden bytes: the default world's report and sealed plane, pinned.

Every change that keeps ``repro report`` and the ``/v1/*`` surface
byte-identical keeps these two digests.  A change that moves an output
on purpose updates them here and says so.
"""

import hashlib

from repro.core.report import render_report

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
