"""Routing table and the uniform JSON envelope for :mod:`repro.serve`.

Every API response is one of two shapes, both serialised by
:func:`to_json_bytes` (sorted keys, fixed separators) so identical
payloads always produce identical bytes — the property the artifact
plane's strong ETags and the byte-identity guarantees rest on::

    {"data": <payload>}                                  # success
    {"error": {"status": ..., "message": ..., ...}}      # failure

Handlers either return a payload ``dict`` (wrapped into the success
envelope) or a :class:`RawResponse` for non-JSON bodies (``/metrics``),
and signal failures by raising :class:`HTTPError` — the server turns
that into the error envelope with the same status code, so a typoed
exhibit id gets the CLI's did-you-mean treatment as structured JSON.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

JSON_CONTENT_TYPE = "application/json; charset=utf-8"
TEXT_CONTENT_TYPE = "text/plain; charset=utf-8"


class HTTPError(Exception):
    """A handler-level failure carrying its HTTP status and envelope extras.

    Attributes:
        status: HTTP status code (404, 405, 422, ...).
        message: Human-readable one-liner for the envelope.
        headers: Extra response headers (``Retry-After`` on an ingest 429).
        extra: Additional envelope fields (``hint``, ``known``, ...).
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        headers: dict[str, str] | None = None,
        **extra: object,
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})
        self.extra = extra


@dataclass(frozen=True, slots=True)
class RawResponse:
    """A non-JSON handler result (e.g. the text ``/metrics`` page)."""

    body: bytes
    content_type: str = TEXT_CONTENT_TYPE
    status: int = 200


#: A handler takes the server's context object plus captured path
#: parameters and returns a JSON payload dict or a RawResponse.
Handler = Callable[..., "dict | RawResponse"]


@dataclass(frozen=True, slots=True)
class Route:
    """One routable endpoint.

    Attributes:
        name: Short endpoint id; becomes the final segment of the
            ``serve.request.<name>`` timer, so it must satisfy the
            metric-segment grammar (lowercase ``[a-z][a-z0-9_]*``).
        method: Upper-case HTTP method the route answers.
        pattern: Path template, e.g. ``/v1/exhibit/{exhibit_id}`` —
            ``{param}`` segments capture into handler kwargs.
        handler: The endpoint implementation.
        cacheable: Whether the route's successful responses belong to
            the static artifact plane: rendered once per serving
            surface, content-addressed with a strong ETag, and served
            from the wire table after that.  Live views (``/healthz``,
            ``/metrics``) are not cacheable.
        accepts_body: Whether the server should read the request body
            (bounded by its size cap) and pass it to the handler as
            ``body=`` bytes plus the query string as a ``meta=`` dict.
            Only mutation endpoints (``POST /v1/ingest/...``) opt in;
            everything else has its body discarded unread.
    """

    name: str
    method: str
    pattern: str
    handler: Handler
    cacheable: bool = True
    accepts_body: bool = False
    segments: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = tuple(s for s in self.pattern.split("/") if s)
        object.__setattr__(self, "segments", parts)

    def match(self, path_segments: tuple[str, ...]) -> dict[str, str] | None:
        """Captured params if *path_segments* matches, else None."""
        if len(path_segments) != len(self.segments):
            return None
        params: dict[str, str] = {}
        for template, actual in zip(self.segments, path_segments):
            if template.startswith("{") and template.endswith("}"):
                params[template[1:-1]] = actual
            elif template != actual:
                return None
        return params


class Router:
    """Ordered route table with typed path parameters.

    Matching is exact on literal segments; a path that matches no
    route's shape raises a 404 :class:`HTTPError`, and a path that
    matches a route under a different method raises 405 (so ``POST
    /healthz`` is "method not allowed", not "no such page").
    """

    def __init__(self) -> None:
        self._routes: list[Route] = []

    def add(
        self,
        name: str,
        method: str,
        pattern: str,
        handler: Handler,
        cacheable: bool = True,
        accepts_body: bool = False,
    ) -> Route:
        """Register and return a route."""
        route = Route(
            name, method.upper(), pattern, handler, cacheable, accepts_body
        )
        self._routes.append(route)
        return route

    def routes(self) -> list[Route]:
        return list(self._routes)

    def match(self, method: str, path: str) -> tuple[Route, dict[str, str]]:
        """The route and captured params for *method* *path*.

        Raises:
            HTTPError: 404 for an unknown path, 405 for a known path
                under the wrong method (with an ``allowed`` hint).
        """
        segments = tuple(s for s in path.split("/") if s)
        allowed: list[str] = []
        for route in self._routes:
            params = route.match(segments)
            if params is None:
                continue
            if route.method == method.upper():
                return route, params
            allowed.append(route.method)
        if allowed:
            raise HTTPError(
                405,
                f"method {method} not allowed for {path}",
                allowed=sorted(set(allowed)),
            )
        raise HTTPError(404, f"no route for {method} {path}")


def to_json_bytes(document: dict) -> bytes:
    """Deterministic JSON serialisation: same dict, same bytes, always."""
    return (
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def envelope_bytes(payload: dict) -> bytes:
    """The success envelope around a handler payload."""
    return to_json_bytes({"data": payload})


def error_bytes(status: int, message: str, **extra: object) -> bytes:
    """The error envelope (uniform across every failure path)."""
    return to_json_bytes({"error": {"status": status, "message": message, **extra}})


def etag_for(body: bytes) -> str:
    """Strong ETag for a response body: quoted SHA-256 of the bytes."""
    return '"' + hashlib.sha256(body).hexdigest() + '"'


def etag_matches(if_none_match: str, etag: str) -> bool:
    """Whether an ``If-None-Match`` header revalidates *etag*.

    Handles the ``*`` wildcard and comma-separated candidate lists; a
    weak-prefixed candidate (``W/"..."``) matches its strong form, which
    is valid for ``If-None-Match`` comparisons (RFC 9110 §8.8.3.2).
    """
    candidates = [c.strip() for c in if_none_match.split(",")]
    if "*" in candidates:
        return True
    return any(c == etag or c == f"W/{etag}" for c in candidates)
