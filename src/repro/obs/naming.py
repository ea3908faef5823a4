"""Metric naming conventions and validation.

Every instrument name follows ``component.noun.verb`` -- at least two
lowercase dot-separated segments of ``[a-z0-9_]``, e.g.
``bgp.asrel.rows_parsed`` or ``scenario.dataset.built``.  Exhibit and
dataset timers append the subject id as a final segment
(``exhibit.run.fig01``, ``scenario.build.peeringdb``), so renderers can
group on the prefix and sort on the tail.

Validation is strict on purpose: a malformed name fails at the first
``counter()``/``timer()`` call rather than producing an artifact with a
one-off spelling that no dashboard query will ever match.
"""

from __future__ import annotations

import re

#: Shape of one name segment.
_SEGMENT = r"[a-z][a-z0-9_]*"
#: Full instrument-name grammar: two or more segments.
_NAME_RE = re.compile(rf"^{_SEGMENT}(\.{_SEGMENT})+$")

#: Well-known name prefixes wired through the pipeline, for reference and
#: for renderers that want to group related instruments.
SCENARIO_BUILD_PREFIX = "scenario.build."
EXHIBIT_RUN_PREFIX = "exhibit.run."
SCENARIO_CACHE_PREFIX = "scenario.cache."
SERVE_REQUEST_PREFIX = "serve.request."
#: Reliability families (see ``docs/RELIABILITY.md``): per-parser
#: quarantine counters and injected faults.
INGEST_PREFIX = "ingest."
#: The durable ingestion journal (see ``docs/INGEST.md``): appends,
#: replays, torn-tail truncations, checkpoints.
WAL_PREFIX = "wal."
FAULTS_PREFIX = "faults."
#: Tracing bookkeeping (see ``docs/OBSERVABILITY.md``).
TRACE_PREFIX = "trace."


class MetricNameError(ValueError):
    """Raised when an instrument name violates the naming convention."""


def validate_name(name: str) -> str:
    """Return *name* unchanged, or raise :class:`MetricNameError`.

    >>> validate_name("mlab.ndt.rows_parsed")
    'mlab.ndt.rows_parsed'
    """
    if not _NAME_RE.match(name):
        raise MetricNameError(
            f"bad metric name {name!r}: expected dot-separated lowercase "
            "segments like 'component.noun.verb'"
        )
    return name
