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
from pathlib import Path

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import Tracer, get_tracer

#: Schema identifier stamped into (and required from) every artifact.
SCHEMA = "repro.obs/1"


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

