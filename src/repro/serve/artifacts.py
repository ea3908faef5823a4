"""The precomputed static artifact plane behind :mod:`repro.serve`.

Every cacheable endpoint is a pure function of ``(scenario parameters,
endpoint, path args)``, and the set of them is closed: all 23 exhibits,
the report, the narrative, the exhibit catalog, and one scorecard per
LACNIC country — 59 responses, well under 100 KB total on default
parameters.

:func:`render_artifact` renders one of them through the handler +
envelope path and stamps a strong ETag (quoted SHA-256 of the body —
the body's content address).  :func:`build_artifact_store` renders all
59 that way and seals them into an immutable :class:`ArtifactStore`;
the server (:mod:`repro.serve.aio`) renders the same function lazily,
one path at a time, into its serving surface.  Either way a path's
bytes are the same, so a plane filled on first request and a plane
sealed up front have the same fingerprint.

Because every artifact records its content address, a served byte
stream is traceable to its inputs: :meth:`ArtifactStore.fingerprint`
combines every path and content address into one digest of the whole
plane.

Observability: the build runs under the ``serve.artifacts.build`` timer
and sets the ``serve.artifacts.count`` / ``serve.artifacts.bytes``
gauges; each render, sealed or lazy, runs under a
``serve.artifacts.render.<endpoint>`` timer, so a seal splits by
endpoint class; per-request hits are counted in ``serve.artifact.hit``
by the server.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, Mapping

from repro.obs import get_registry, timed
from repro.serve.router import JSON_CONTENT_TYPE, envelope_bytes, etag_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.handlers import ServeContext

@dataclass(frozen=True, slots=True)
class Artifact:
    """One immutable pre-rendered response.

    Attributes:
        path: Canonical request path (``/v1/exhibit/fig01``).
        endpoint: Route name that produced it (``exhibit``).
        body: The exact response body bytes.
        etag: Strong ETag — quoted SHA-256 of *body*, the artifact's
            content address.
        content_type: Response media type.
    """

    path: str
    endpoint: str
    body: bytes
    etag: str
    content_type: str = JSON_CONTENT_TYPE

    @property
    def sha256(self) -> str:
        """The bare content address (the ETag without quotes)."""
        return self.etag.strip('"')


def static_surface() -> list[tuple[str, dict[str, str]]]:
    """Every ``(endpoint, path_params)`` the artifact plane materialises.

    The enumeration is closed because each parameterised route has a
    finite domain: exhibit ids come from the registry and scorecards
    exist only for LACNIC countries (everything else is a 404/422 error
    envelope, which stays on the live path).
    """
    from repro.core import exhibit_ids
    from repro.geo.countries import LACNIC_CODES

    surface: list[tuple[str, dict[str, str]]] = [
        ("exhibits", {}),
        ("report", {}),
        ("narrative", {}),
    ]
    surface += [("exhibit", {"exhibit_id": eid}) for eid in exhibit_ids()]
    surface += [("scorecard", {"country": code}) for code in LACNIC_CODES]
    return surface


def canonical_params(endpoint: str, params: dict[str, str]) -> dict[str, str]:
    """Path params normalised the way the handler would (case folding).

    Scorecard country codes are case-insensitive on the live path
    (``/v1/scorecard/ve`` == ``/v1/scorecard/VE``); the store keys
    artifacts by the canonical form so both spellings hit.
    """
    if endpoint == "scorecard":
        return {**params, "country": params["country"].upper()}
    return dict(params)


def path_for(endpoint: str, params: dict[str, str]) -> str:
    """The canonical request path for one static endpoint instance."""
    if endpoint == "exhibits":
        return "/v1/exhibits"
    if endpoint == "report":
        return "/v1/report"
    if endpoint == "narrative":
        return "/v1/narrative"
    if endpoint == "exhibit":
        return f"/v1/exhibit/{params['exhibit_id']}"
    if endpoint == "scorecard":
        return f"/v1/scorecard/{params['country']}"
    raise KeyError(f"not a static endpoint: {endpoint}")


def artifact_key(endpoint: str, params: dict[str, str]) -> tuple:
    """The plane key of a routed ``(endpoint, path_params)`` pair.

    Parameters are case-folded first, so every spelling the router
    matches for one artifact shares one key.
    """
    return (endpoint, tuple(sorted(canonical_params(endpoint, params).items())))


def render_artifact(
    context: "ServeContext", endpoint: str, params: dict[str, str]
) -> Artifact:
    """Render one static endpoint instance through its handler + envelope.

    The handler (``repro.serve.handlers.handle_<endpoint>``) and
    :func:`envelope_bytes` are looked up at call time; a render that
    returns is timed into ``serve.artifacts.render.<endpoint>``.  Raises
    whatever the handler raises (an :class:`~repro.serve.router.HTTPError`
    for a parameter outside the static domain).
    """
    from repro.serve import handlers

    params = canonical_params(endpoint, params)
    handler = getattr(handlers, f"handle_{endpoint}")
    body = timed(
        f"serve.artifacts.render.{endpoint}",
        lambda: envelope_bytes(handler(context, **params)),
    )
    return Artifact(
        path=path_for(endpoint, params),
        endpoint=endpoint,
        body=body,
        etag=etag_for(body),
    )


class ArtifactStore:
    """Sealed, content-addressed map of the full static response surface.

    Immutable after construction: the path and endpoint indexes are
    exposed through :class:`~types.MappingProxyType`, artifact bodies
    are ``bytes``, and there is deliberately no mutation API — a store
    is rebuilt, never patched, so a served byte stream always traces to
    exactly one build.
    """

    __slots__ = ("_by_path", "_by_endpoint", "total_bytes")

    def __init__(self, artifacts: list[Artifact]) -> None:
        by_path: dict[str, Artifact] = {}
        by_endpoint: dict[tuple, Artifact] = {}
        for artifact in artifacts:
            if artifact.path in by_path:
                raise ValueError(f"duplicate artifact path: {artifact.path}")
            by_path[artifact.path] = artifact
            # Endpoint index keyed by canonical params: case-folded
            # lookups through the router resolve here.
            key = artifact_key(artifact.endpoint, route_params(artifact))
            by_endpoint[key] = artifact
        self._by_path: Mapping[str, Artifact] = MappingProxyType(by_path)
        self._by_endpoint: Mapping[tuple, Artifact] = MappingProxyType(
            by_endpoint
        )
        self.total_bytes = sum(len(a.body) for a in artifacts)

    def __len__(self) -> int:
        return len(self._by_path)

    def __iter__(self) -> Iterator[Artifact]:
        return iter(self._by_path.values())

    def get(self, path: str) -> Artifact | None:
        """The artifact served at exactly *path*, or None."""
        return self._by_path.get(path)

    def find(self, endpoint: str, params: dict[str, str]) -> Artifact | None:
        """The artifact for a routed ``(endpoint, path_params)`` pair.

        Case-folds parameters the same way the live handler would, so a
        request the router matched always resolves to the same artifact
        the canonical path serves.
        """
        return self._by_endpoint.get(artifact_key(endpoint, params))

    def fingerprint(self) -> str:
        """SHA-256 over every artifact's (path, content address), sorted.

        Two stores built from the same scenario parameters are
        guaranteed the same fingerprint; any byte of drift in any
        response changes it.
        """
        digest = hashlib.sha256()
        for path in sorted(self._by_path):
            artifact = self._by_path[path]
            digest.update(path.encode("utf-8"))
            digest.update(b"\0")
            digest.update(artifact.sha256.encode("ascii"))
            digest.update(b"\n")
        return digest.hexdigest()


def route_params(artifact: Artifact) -> dict[str, str]:
    """Recover the path params an artifact was rendered with."""
    if artifact.endpoint == "exhibit":
        return {"exhibit_id": artifact.path.rsplit("/", 1)[-1]}
    if artifact.endpoint == "scorecard":
        return {"country": artifact.path.rsplit("/", 1)[-1]}
    return {}


def build_artifact_store(
    context: "ServeContext", workers: int = 1
) -> ArtifactStore:
    """Materialise the full static response surface for *context*.

    Builds the scenario first if the pool is cold, then renders every
    static endpoint with :func:`render_artifact`, one after another, and
    seals the result.

    Args:
        context: The server's shared context (pool + scenario params).
        workers: Accepts only 1.  It stays while the benchmark harness
            (``perfbench/``) still passes ``workers=1``; a later change
            to the benchmark drops that argument, and this keyword goes
            with it.

    Raises:
        ValueError: *workers* is not 1.
    """
    if workers != 1:
        raise ValueError(f"renders are serial: workers must be 1, got {workers!r}")
    registry = get_registry()
    with registry.timer("serve.artifacts.build").time():
        context.scenario()  # build first: the render timers then time renders only
        artifacts = [render_artifact(context, *spec) for spec in static_surface()]
    store = ArtifactStore(artifacts)
    registry.gauge("serve.artifacts.count").set(len(store))
    registry.gauge("serve.artifacts.bytes").set(store.total_bytes)
    return store
