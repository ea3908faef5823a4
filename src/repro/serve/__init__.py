"""repro.serve: a concurrent HTTP API over the paper pipeline.

Turns the one-shot CLI into a long-lived service (stdlib only).  One
engine serves it: :mod:`repro.serve.aio`, an asyncio front end that
answers every static path from a content-addressed artifact plane with
one dict lookup and one zero-copy write, and everything else on a live
path.  The pieces, smallest first:

* :mod:`repro.serve.router` -- the route table, typed path parameters,
  and the uniform ``{"data": ...}`` / ``{"error": ...}`` JSON envelopes
  with deterministic serialisation and strong ETags.
* :mod:`repro.serve.pool` -- :class:`ScenarioPool`: one warm
  :class:`~repro.core.scenario.Scenario` per parameter set, shared
  across request threads and built before the server listens.
* :mod:`repro.serve.artifacts` -- the static response surface (59
  responses), rendered one at a time or sealed whole (one serial loop)
  into an immutable :class:`ArtifactStore`; each response is addressed
  by its SHA-256.
* :mod:`repro.serve.server` -- :class:`~repro.serve.server.ServingSurface`,
  one serving generation: context, artifact plane and wire table.
* :mod:`repro.serve.handlers` -- the endpoint implementations:
  ``/healthz``, ``/metrics``, ``/v1/exhibits``, ``/v1/exhibit/<id>``,
  ``/v1/report``, ``/v1/narrative``, ``/v1/scorecard/<cc>`` and
  ``POST /v1/ingest/<format>``.
* :mod:`repro.serve.ingestor` -- durable ingestion behind
  ``POST /v1/ingest``: journal, background apply, surface hot-swap.
* :mod:`repro.serve.aio` -- the server: one process on one port,
  keep-alive HTTP/1.1, the live path's hardening, and a graceful
  SIGTERM drain.  It is traced like any other command, by the global
  ``--trace`` flag.

Entry points: ``python -m repro serve`` (CLI) or, embedded::

    from repro.serve import create_aio_server, run_aio

    run_aio(create_aio_server(port=8321))   # seals, then serves

See ``docs/SERVING.md`` for endpoint shapes, the plane rule, and tuning
guidance.
"""

from repro.serve.aio import AioServer, create_aio_server, run_aio
from repro.serve.artifacts import Artifact, ArtifactStore, build_artifact_store
from repro.serve.handlers import ServeContext, build_router
from repro.serve.pool import ScenarioPool
from repro.serve.router import (
    HTTPError,
    RawResponse,
    Route,
    Router,
    envelope_bytes,
    error_bytes,
    etag_for,
    etag_matches,
    to_json_bytes,
)

__all__ = [
    "AioServer",
    "Artifact",
    "ArtifactStore",
    "HTTPError",
    "RawResponse",
    "Route",
    "Router",
    "ScenarioPool",
    "ServeContext",
    "build_artifact_store",
    "build_router",
    "create_aio_server",
    "envelope_bytes",
    "error_bytes",
    "etag_for",
    "etag_matches",
    "run_aio",
    "to_json_bytes",
]
