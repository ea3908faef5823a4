"""Endpoint implementations behind the :mod:`repro.serve` router.

Each handler is a pure function of the shared warm scenario: it fetches
the world from the :class:`~repro.serve.pool.ScenarioPool`, which the
server filled before it started listening, and returns a JSON payload
dict.  The server wraps payloads in the ``{"data": ...}`` envelope,
keeps the rendered bytes in its artifact plane, and stamps ETags —
handlers never see HTTP.

Error semantics mirror the CLI exactly: an unknown exhibit id is a 404
with the same did-you-mean suggestion ``repro exhibit`` prints, and an
unknown or non-LACNIC scorecard country maps to 404/422 where the CLI
exits 2.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core import exhibit_ids, run_exhibit
from repro.core.exhibit import exhibit_catalog
from repro.core.narrative import all_findings, format_findings
from repro.core.report import render_report
from repro.core.scorecard import NonLacnicCountryError, build_scorecard
from repro.geo.countries import UnknownCountryError
from repro.obs import negotiates_openmetrics, render_metrics, render_openmetrics
from repro.obs.openmetrics import CONTENT_TYPE as OPENMETRICS_CONTENT_TYPE
from repro.serve.pool import ScenarioPool
from repro.serve.router import HTTPError, RawResponse, Router

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scenario import Scenario


@dataclass
class ServeContext:
    """What every handler gets: the pool and the parameter set it serves.

    ``ingest`` is the durable ingestion front-end (a
    :class:`~repro.serve.ingestor.ServeIngestor`) when the server was
    started with ``--ingest-dir``; None keeps the API read-only and
    ``POST /v1/ingest`` answers 503.
    """

    pool: ScenarioPool
    params: dict[str, object] = field(default_factory=dict)
    ingest: object | None = None

    def scenario(self) -> "Scenario":
        """The shared warm scenario (built on first use)."""
        return self.pool.get(**self.params)


def _json_cell(value: object) -> object:
    """An exhibit cell as a JSON-safe scalar (rich types degrade to str)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def handle_exhibits(ctx: ServeContext) -> dict:
    """GET /v1/exhibits — the id/title catalog (shared with ``repro list``)."""
    return {"exhibits": exhibit_catalog()}


def handle_exhibit(ctx: ServeContext, exhibit_id: str) -> dict:
    """GET /v1/exhibit/{exhibit_id} — one exhibit's rows and rendering."""
    known = exhibit_ids()
    if exhibit_id not in known:
        hints = difflib.get_close_matches(exhibit_id, known, n=1, cutoff=0.4)
        extra: dict[str, object] = {"known": known}
        if hints:
            extra["hint"] = f"did you mean: {hints[0]}?"
        raise HTTPError(404, f"unknown exhibit: {exhibit_id}", **extra)
    exhibit = run_exhibit(ctx.scenario(), exhibit_id)
    return {
        "id": exhibit.exhibit_id,
        "title": exhibit.title,
        "columns": exhibit.columns(),
        "rows": [
            {key: _json_cell(value) for key, value in row.items()}
            for row in exhibit.rows
        ],
        "notes": exhibit.notes,
        "rendered": exhibit.render(),
    }


def handle_report(ctx: ServeContext) -> dict:
    """GET /v1/report — the full text report, byte-identical to the CLI."""
    return {"report": render_report(ctx.scenario())}


def handle_narrative(ctx: ServeContext) -> dict:
    """GET /v1/narrative — the computed headline findings."""
    findings = all_findings(ctx.scenario())
    return {
        "findings": [
            {"topic": finding.topic, "text": finding.text}
            for finding in findings
        ],
        "rendered": format_findings(findings),
    }


def handle_scorecard(ctx: ServeContext, country: str) -> dict:
    """GET /v1/scorecard/{country} — the five-panel regional scorecard."""
    try:
        scorecard = build_scorecard(ctx.scenario(), country)
    except UnknownCountryError:
        raise HTTPError(404, f"unknown country code: {country.upper()}") from None
    except NonLacnicCountryError as exc:
        raise HTTPError(422, str(exc)) from None
    payload = scorecard.to_dict()
    payload["rendered"] = scorecard.render()
    return payload


def handle_healthz(ctx: ServeContext) -> dict:
    """GET /healthz — liveness and degradation state.

    ``status`` is ``degraded`` while the served world carries degraded
    datasets (listed in ``degraded_datasets``; every endpoint keeps
    serving), else ``ok``.  See ``docs/RELIABILITY.md``.
    """
    degraded = [dataset.name for dataset in ctx.scenario().degraded()]
    payload: dict[str, object] = {
        "status": "degraded" if degraded else "ok",
        "exhibits": len(exhibit_ids()),
    }
    if degraded:
        payload["degraded_datasets"] = degraded
    if ctx.ingest is not None:
        payload["ingest"] = ctx.ingest.status()
    return payload


def handle_ingest(
    ctx: ServeContext, format: str, body: bytes = b"", meta: dict | None = None
) -> dict:
    """POST /v1/ingest/{format} — journal one batch, at-least-once.

    The body is the batch (JSONL for row feeds, one whole dump for
    PeeringDB); query parameters become the batch ``meta`` (PeeringDB
    needs ``?month=YYYY-MM``).  The 2xx response is the journal receipt
    — by then the batch is fsync'd, so a crash cannot lose it and an
    identical retry is re-acked as a duplicate.

    Error mapping: 404 unknown format, 413 oversized body (from the
    server's cap), 422 invalid batch, 429 + ``Retry-After`` when the
    un-applied backlog is at its bound, 503 when ingestion is disabled.
    """
    from repro.ingest import ErrorBudgetExceeded
    from repro.ingest.formats import FORMATS
    from repro.ingest.service import IngestBacklogError, IngestValidationError

    if ctx.ingest is None:
        raise HTTPError(
            503,
            "ingestion disabled; start the server with --ingest-dir",
            reason="IngestDisabled",
        )
    if format not in FORMATS:
        raise HTTPError(
            404, f"unknown ingest format: {format}", known=sorted(FORMATS)
        )
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise HTTPError(422, f"body is not valid UTF-8: {exc}") from None
    try:
        receipt = ctx.ingest.submit(format, text.splitlines(), meta)
    except IngestBacklogError as exc:
        raise HTTPError(
            429,
            str(exc),
            headers={"Retry-After": str(exc.retry_after)},
            backlog=exc.backlog,
            limit=exc.limit,
        ) from None
    except (IngestValidationError, ErrorBudgetExceeded, ValueError) as exc:
        raise HTTPError(422, str(exc)) from None
    return receipt.to_dict()


def handle_metrics(ctx: ServeContext, accept: str | None = None) -> RawResponse:
    """GET /metrics — the live ``repro.obs`` registry.

    Content-negotiated on the request's *accept* header: one carrying
    ``application/openmetrics-text`` (what a Prometheus scraper sends)
    gets the spec-shaped OpenMetrics exposition; everything else keeps
    the human-readable text tables.
    """
    if negotiates_openmetrics(accept):
        return RawResponse(
            render_openmetrics().encode("utf-8"),
            content_type=OPENMETRICS_CONTENT_TYPE,
        )
    body = render_metrics() or "(no metrics recorded)"
    return RawResponse(body.encode("utf-8") + b"\n")


def build_router() -> Router:
    """The full API routing table."""
    router = Router()
    router.add("healthz", "GET", "/healthz", handle_healthz, cacheable=False)
    router.add("metrics", "GET", "/metrics", handle_metrics, cacheable=False)
    router.add("exhibits", "GET", "/v1/exhibits", handle_exhibits)
    router.add("exhibit", "GET", "/v1/exhibit/{exhibit_id}", handle_exhibit)
    router.add("report", "GET", "/v1/report", handle_report)
    router.add("narrative", "GET", "/v1/narrative", handle_narrative)
    router.add("scorecard", "GET", "/v1/scorecard/{country}", handle_scorecard)
    router.add(
        "ingest",
        "POST",
        "/v1/ingest/{format}",
        handle_ingest,
        cacheable=False,
        accepts_body=True,
    )
    return router
