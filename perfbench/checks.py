"""Expected outputs and the tally of checked operations.

Every operation a workload attempts is counted; a wrong output counts
as a failure just like an error or a timeout.  The expected values are
pinned in ``expected.json`` (see ``pin.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def quoted(sha: str) -> bytes:
    """The strong ETag header value of a content address."""
    return f'"{sha}"'.encode("ascii")


def plane_fingerprint(artifacts: dict[str, str]) -> str:
    """Fingerprint of a ``path -> sha256`` plane: sha256 over sorted
    ``path NUL sha LF`` lines, the definition ``ArtifactStore`` uses."""
    digest = hashlib.sha256()
    for path in sorted(artifacts):
        digest.update(f"{path}\0{artifacts[path]}\n".encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class Expected:
    report_stdout_sha256: str
    plane_fingerprint: str
    artifacts: dict[str, str]
    ingest_changes: tuple[str, ...]

    @classmethod
    def load(cls, path: Path = EXPECTED_PATH) -> "Expected":
        raw = json.loads(path.read_text(encoding="utf-8"))
        return cls(
            report_stdout_sha256=raw["report_stdout_sha256"],
            plane_fingerprint=raw["plane_fingerprint"],
            artifacts=dict(raw["artifacts"]),
            ingest_changes=tuple(raw["ingest_changes"]),
        )

    @property
    def paths(self) -> list[str]:
        return sorted(self.artifacts)

    @property
    def report_sha256(self) -> str:
        return self.artifacts["/v1/report"]


class Tally:
    """Attempted and failed operations, with the first failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        """Count one checked operation; a false *ok* is a failure."""
        self.attempted += 1
        if not ok:
            self.fail(reason)
        return ok

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def pinned_plane(self, expected: Expected) -> bool:
        """The pinned artifact list reproduces the pinned fingerprint."""
        return self.check(
            plane_fingerprint(expected.artifacts) == expected.plane_fingerprint,
            "expected.json: artifact list does not match the plane fingerprint",
        )

    def plane(self, served: dict[str, bytes], expected: Expected,
              changed: tuple[str, ...] = (), label: str = "plane") -> None:
        """Check a fetched plane against the pinned base plane.

        Paths outside *changed* must be byte-identical to the base; paths
        in *changed* must differ from it.  Every path must be present.
        """
        self.check(set(served) == set(expected.artifacts),
                   f"{label}: served paths differ from the pinned surface")
        for path, body in sorted(served.items()):
            base = expected.artifacts.get(path)
            if path in changed:
                self.check(sha256(body) != base, f"{label}: {path} did not change")
            else:
                self.check(sha256(body) == base, f"{label}: {path} differs from base")
