"""repro.obs: metrics, tracing, and logging.

The layers, smallest first:

* :mod:`repro.obs.metrics` -- counters/gauges/timer-histograms in a
  process-global (but swappable) :class:`MetricsRegistry`.  Always on;
  instrumented code records one update per batch, never per row.
* :mod:`repro.obs.tracing` -- nested wall-time spans via
  :func:`trace_span` / :func:`traced`.  Off by default with a near-zero
  disabled path; the CLI's ``--trace`` flag enables it for the whole
  process, whatever the command (``serve`` included).
* :mod:`repro.obs.logging` -- structured (JSON or text) event logs on
  stderr.
* :mod:`repro.obs.openmetrics` -- the Prometheus/OpenMetrics text
  exposition ``repro serve`` negotiates at ``/metrics``.
* :mod:`repro.obs.benchgate` -- the ``repro bench gate`` regression gate
  over committed ``BENCH_*.json`` baselines.
* :mod:`repro.obs.export` / :mod:`repro.obs.render` -- the ``repro.obs/1``
  JSON artifact and the terminal tables behind ``python -m repro stats``.

See ``docs/OBSERVABILITY.md`` for naming conventions and the artifact
schema.
"""

from repro.obs.export import (
    SCHEMA,
    metrics_from_json,
    metrics_to_dict,
    metrics_to_json,
    write_metrics_json,
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
    "SCHEMA",
    "CapturedLogs",
    "Counter",
    "Gauge",
    "Logger",
    "MetricNameError",
    "MetricsRegistry",
    "SpanRecord",
    "Timer",
    "Tracer",
    "configure_logging",
    "counting",
    "enable_tracing",
    "get_logger",
    "get_registry",
    "get_tracer",
    "metrics_from_json",
    "metrics_to_dict",
    "metrics_to_json",
    "negotiates_openmetrics",
    "parse_openmetrics",
    "percentile",
    "render_metrics",
    "render_openmetrics",
    "render_spans",
    "render_timer_group",
    "reset",
    "reset_logging",
    "set_registry",
    "timed",
    "trace_span",
    "traced",
    "tracing_enabled",
    "validate_name",
    "write_metrics_json",
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
