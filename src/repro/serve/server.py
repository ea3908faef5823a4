"""The serving surface: one generation of what the server answers.

A :class:`ServingSurface` pairs a :class:`~repro.serve.handlers.ServeContext`
with the artifact plane rendered from it and the wire table compiled
from that plane.  :class:`~repro.serve.aio.AioServer` holds exactly
one current surface; an ingest apply builds the next one whole and swaps
it in with a single attribute store.

:data:`MAX_BODY_BYTES` bounds the request bodies the server buffers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.serve.artifacts import Artifact, artifact_key, route_params

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.handlers import ServeContext

#: Bound on request bodies for routes that accept one (``/v1/ingest``);
#: larger submissions get 413 before a byte of the body is buffered.
MAX_BODY_BYTES = 32 * 1024 * 1024


class _Wire:
    """One artifact compiled to immutable wire images (200 and 304)."""

    __slots__ = ("full", "not_modified", "etag")

    def __init__(self, artifact: Artifact) -> None:
        head = (
            f"HTTP/1.1 200 OK\r\n"
            f"Content-Type: {artifact.content_type}\r\n"
            f"Content-Length: {len(artifact.body)}\r\n"
            f"ETag: {artifact.etag}\r\n"
            f"\r\n"
        ).encode("latin-1")
        self.full = memoryview(head + artifact.body)
        self.not_modified = memoryview(
            f"HTTP/1.1 304 Not Modified\r\nETag: {artifact.etag}\r\n\r\n".encode(
                "latin-1"
            )
        )
        self.etag = artifact.etag


class ServingSurface:
    """One serving generation: context, artifact plane, wire table.

    The plane maps :func:`~repro.serve.artifacts.artifact_key` keys to
    artifacts (the keys :meth:`ArtifactStore.find` uses, so
    ``/v1/scorecard/ve`` and ``/v1/scorecard/VE`` share an entry);
    ``wire`` maps each artifact's canonical path and its lower-case
    spelling to its precompiled wire images.

    A surface built from a sealed store carries the whole plane from
    the start.  One built without starts empty, and the server adds
    each artifact the first time a request renders it.  Every artifact
    is addressed by the SHA-256 of its bytes, so both serve the same
    plane.  Only the event-loop thread adds to a published surface.
    """

    __slots__ = ("context", "generation", "wire", "_plane")

    def __init__(
        self,
        context: "ServeContext",
        artifacts: Iterable[Artifact] = (),
        generation: int = 0,
    ) -> None:
        self.context = context
        self.generation = generation
        self.wire: dict[bytes, _Wire] = {}
        self._plane: dict[tuple, Artifact] = {}
        for artifact in artifacts:
            self.remember(artifact)

    def find(self, endpoint: str, params: dict[str, str]) -> Artifact | None:
        """The plane's artifact for a routed ``(endpoint, params)``, or None."""
        return self._plane.get(artifact_key(endpoint, params))

    def remember(self, artifact: Artifact) -> None:
        """Add *artifact* to the plane and the wire table; first one wins."""
        key = artifact_key(artifact.endpoint, route_params(artifact))
        if key in self._plane:
            return
        self._plane[key] = artifact
        wire = _Wire(artifact)
        self.wire[artifact.path.encode("latin-1")] = wire
        self.wire.setdefault(artifact.path.lower().encode("latin-1"), wire)
