"""repro.obs: metrics, tracing, logging, and SLOs.

The layers, smallest first:

* :mod:`repro.obs.metrics` -- counters/gauges/timer-histograms in a
  process-global (but swappable) :class:`MetricsRegistry`.  Always on;
  instrumented code records one update per batch, never per row.
* :mod:`repro.obs.context` / :mod:`repro.obs.tracing` -- W3C-shaped
  request contexts (``traceparent``, ``X-Request-Id``) and nested
  wall-time spans via :func:`trace_span` / :func:`traced`.  Off by
  default with a near-zero disabled path; the CLI's ``--trace`` flag
  enables it globally and ``repro serve --trace-sample-rate`` enables it
  per sampled request.
* :mod:`repro.obs.logging` -- structured (JSON or text) event logs with
  automatic trace/request correlation.
* :mod:`repro.obs.openmetrics` -- the Prometheus/OpenMetrics text
  exposition ``repro serve`` negotiates at ``/metrics``.
* :mod:`repro.obs.slo` -- rolling-window availability/latency objectives
  and burn rates for ``/healthz`` and ``/v1/slo``.
* :mod:`repro.obs.benchgate` -- the ``repro bench gate`` regression gate
  over committed ``BENCH_*.json`` baselines.
* :mod:`repro.obs.export` / :mod:`repro.obs.render` -- the ``repro.obs/1``
  and ``repro.trace/1`` JSON artifacts and the terminal tables behind
  ``python -m repro stats``.

See ``docs/OBSERVABILITY.md`` for naming conventions and the artifact
schemas.
"""

from repro.obs.context import (
    TraceContext,
    current_context,
    new_request_id,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    sampling_decision,
    start_request_context,
    use_context,
)
from repro.obs.export import (
    SCHEMA,
    TRACE_SCHEMA,
    metrics_from_json,
    metrics_to_dict,
    metrics_to_json,
    trace_from_json,
    trace_to_dict,
    write_metrics_json,
    write_trace_json,
)
from repro.obs.instruments import counting, timed
from repro.obs.logging import (
    CapturedLogs,
    Logger,
    configure_logging,
    get_logger,
    reset_logging,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    Timer,
    get_registry,
    percentile,
    set_registry,
)
from repro.obs.naming import MetricNameError, validate_name
from repro.obs.openmetrics import (
    negotiates_openmetrics,
    parse_openmetrics,
    render_openmetrics,
)
from repro.obs.render import render_metrics, render_spans, render_timer_group
from repro.obs.slo import DEFAULT_SLOS, SLODefinition, SLOTracker
from repro.obs.tracing import (
    SpanRecord,
    Tracer,
    enable_tracing,
    get_tracer,
    trace_span,
    traced,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_SLOS",
    "SCHEMA",
    "TRACE_SCHEMA",
    "CapturedLogs",
    "Counter",
    "Gauge",
    "Logger",
    "MetricNameError",
    "MetricsRegistry",
    "SLODefinition",
    "SLOTracker",
    "SpanRecord",
    "Timer",
    "TraceContext",
    "Tracer",
    "configure_logging",
    "counting",
    "current_context",
    "enable_tracing",
    "get_logger",
    "get_registry",
    "get_tracer",
    "metrics_from_json",
    "metrics_to_dict",
    "metrics_to_json",
    "negotiates_openmetrics",
    "new_request_id",
    "new_span_id",
    "new_trace_id",
    "parse_openmetrics",
    "percentile",
    "render_metrics",
    "render_openmetrics",
    "render_spans",
    "render_timer_group",
    "reset",
    "reset_logging",
    "sampling_decision",
    "set_registry",
    "start_request_context",
    "timed",
    "trace_from_json",
    "trace_span",
    "trace_to_dict",
    "traced",
    "tracing_enabled",
    "use_context",
    "validate_name",
    "write_metrics_json",
    "write_trace_json",
]


def reset() -> None:
    """Reset all global observability state (metrics, spans, logging).

    Test fixtures call this between tests so instruments recorded by one
    test never leak into another's assertions.
    """
    get_registry().reset()
    tracer = get_tracer()
    tracer.reset()
    tracer.enabled = False
    reset_logging()
