"""Machine-readable export of the metrics/trace state.

The artifact is one JSON document (schema id ``repro.obs/1``)::

    {
      "schema": "repro.obs/1",
      "metrics": {
        "counters": {"scenario.dataset.built": 16, ...},
        "gauges":   {"mlab.ndt.tests_per_month": 40.0, ...},
        "timers":   {"exhibit.run.fig01": {"count": 1, "sum": ...,
                     "min": ..., "max": ..., "mean": ..., "p50": ...,
                     "p95": ...}, ...}
      },
      "spans": [{"name": ..., "depth": ..., "start": ...,
                 "duration": ..., "thread": ...}, ...]
    }

``python -m repro --metrics-json PATH <command>`` writes it after any
command; CI treats a missing or empty artifact as a failed run.  The
document is self-contained and diffable, so two runs of the same command
give a before/after profile for perf work.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import Tracer, get_tracer

#: Schema identifier stamped into (and required from) every artifact.
SCHEMA = "repro.obs/1"

#: Schema identifier of the per-request trace artifact.
TRACE_SCHEMA = "repro.trace/1"


def metrics_to_dict(
    registry: MetricsRegistry | None = None, tracer: Tracer | None = None
) -> dict:
    """The full artifact as a plain dict."""
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    return {
        "schema": SCHEMA,
        "metrics": registry.snapshot(),
        "spans": [record.to_dict() for record in tracer.finished()],
    }


def metrics_to_json(
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    indent: int | None = 2,
) -> str:
    """The artifact serialised as JSON text."""
    return json.dumps(metrics_to_dict(registry, tracer), indent=indent, sort_keys=True)


def metrics_from_json(text: str) -> dict:
    """Parse and validate an artifact produced by :func:`metrics_to_json`.

    Raises:
        ValueError: if the document is not a ``repro.obs/1`` artifact.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ValueError(f"not a {SCHEMA} artifact")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("artifact missing 'metrics' object")
    for section in ("counters", "gauges", "timers"):
        if not isinstance(metrics.get(section), dict):
            raise ValueError(f"artifact missing 'metrics.{section}' object")
    if not isinstance(doc.get("spans"), list):
        raise ValueError("artifact missing 'spans' list")
    return doc


def write_metrics_json(
    path: Path | str,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> Path:
    """Write the artifact to *path* (parents created); returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(metrics_to_json(registry, tracer) + "\n", encoding="utf-8")
    return path


# -- per-request traces (repro.trace/1) --------------------------------------


def trace_to_dict(
    trace_id: str,
    spans: list,
    request_id: str | None = None,
) -> dict:
    """One trace's spans as a ``repro.trace/1`` document.

    *spans* are :class:`~repro.obs.tracing.SpanRecord` objects, usually
    from :meth:`Tracer.take_trace`; the serve dispatcher writes one such
    document per sampled request, named after the trace id, so a
    ``traceparent`` seen by a client can be joined to its span tree on
    disk.
    """
    return {
        "schema": TRACE_SCHEMA,
        "trace_id": trace_id,
        "request_id": request_id,
        "spans": [record.to_dict() for record in spans],
    }


def trace_from_json(text: str) -> dict:
    """Parse and validate a ``repro.trace/1`` artifact.

    Raises:
        ValueError: if the document is not a ``repro.trace/1`` artifact
            or its spans do not all belong to the declared trace.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"not a {TRACE_SCHEMA} artifact")
    trace_id = doc.get("trace_id")
    if not isinstance(trace_id, str) or not trace_id:
        raise ValueError("artifact missing 'trace_id'")
    spans = doc.get("spans")
    if not isinstance(spans, list):
        raise ValueError("artifact missing 'spans' list")
    for span in spans:
        if not isinstance(span, dict) or span.get("trace_id") != trace_id:
            raise ValueError("artifact contains spans from another trace")
    return doc


def write_trace_json(
    directory: Path | str,
    trace_id: str,
    spans: list,
    request_id: str | None = None,
) -> Path:
    """Write one trace under *directory* as ``trace-<trace_id>.json``.

    The file appears atomically (temp file + ``os.replace``), so a reader
    polling for it never sees it empty or half written.  The temp name
    is unique per writing thread: two requests sharing a client trace id
    may export at once.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"trace-{trace_id}.json"
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    tmp.write_text(
        json.dumps(trace_to_dict(trace_id, spans, request_id), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)
    return path
