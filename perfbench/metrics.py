"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests keep the two in step.  Every workload reports every
end-to-end metric (untraced pass) and every per-layer metric (traced
pass); see ``README.md`` for what each one means on each workload.
"""

from __future__ import annotations

#: (name, unit, better, bound): bound is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
#: Timings carry a 25 % bound: on a shared 2-vCPU VM the same code
#: drifted 15-30 % in single-thread speed over minutes.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Measured and printed on every run, but not gated: on one connection
#: both follow hypervisor steal far more than the program (see README).
UNGATED = (
    ("throughput_rps", "1/s"),
    ("latency_p99_ms", "ms"),
)

#: Scenario datasets in definition order (``repro.core.scenario``).
DATASETS = (
    "macro", "delegations", "prefix2as", "peeringdb", "cables", "ipv6",
    "root_deployment", "probes", "chaos_observations", "populations",
    "offnets", "orgmap", "site_survey", "asrel", "ndt_tests",
    "gpdns_traceroutes",
)

#: Registered exhibits in id order (``repro.core.exhibit_ids``).
EXHIBITS = tuple(f"fig{n:02d}" for n in range(1, 22)) + ("table1", "table2")

#: (name, unit, better) of every per-layer metric, grouped by module.
PER_LAYER = (
    # repro.cli
    (("cli.import_s", "s", "lower"),)
    # repro.exec cache + repro.core.scenario, warm
    + tuple((f"load.{name}_ms", "ms", "lower") for name in DATASETS)
    + (
        ("load_s", "s", "lower"),
        ("cache.hits", "count", "higher"),
        ("cache.misses", "count", "lower"),
        ("cache.stores", "count", "lower"),
        ("cache.bytes", "B", "lower"),
    )
    # domain generators via Scenario, cold
    + tuple((f"build.{name}_ms", "ms", "lower") for name in DATASETS)
    + (("build_s", "s", "lower"),)
    # repro.core analysis
    + tuple((f"exhibit.{eid}_ms", "ms", "lower") for eid in EXHIBITS)
    + (
        ("render_report_s", "s", "lower"),
        ("scorecard.median_ms", "ms", "lower"),
        ("scorecards_s", "s", "lower"),
        ("narrative_ms", "ms", "lower"),
    )
    # repro.serve.artifacts
    + (
        ("seal_s", "s", "lower"),
        ("seal.exhibit_s", "s", "lower"),
        ("seal.report_s", "s", "lower"),
        ("seal.narrative_s", "s", "lower"),
        ("seal.scorecard_s", "s", "lower"),
        ("seal.catalog_s", "s", "lower"),
        ("seal.exhibit_runs", "count", "lower"),
        ("artifacts.count", "count", "higher"),
        ("artifacts.bytes", "B", "lower"),
    )
    # repro.serve.aio
    + (
        ("aio.wire_compile_ms", "ms", "lower"),
        ("aio.server_cpu_us_per_req", "us", "lower"),
        ("aio.client_cpu_us_per_req", "us", "lower"),
        ("aio.artifact_hit_ratio", "ratio", "higher"),
        ("aio.not_modified", "count", "higher"),
        ("aio.datasets_built", "count", "lower"),
    )
    # repro.ingest + the serve front door
    + (
        ("ingest.ack_ms", "ms", "lower"),
        ("ingest.canonicalise_ms", "ms", "lower"),
        ("wal.append_ms", "ms", "lower"),
        ("wal.bytes_per_user_byte", "ratio", "lower"),
        ("ingest.overlay_ms", "ms", "lower"),
        ("ingest.rebuild_s", "s", "lower"),
        ("ingest.seal_s", "s", "lower"),
        ("ingest.apply_s", "s", "lower"),
        ("ingest.partitions_built", "count", "lower"),
        ("ingest.partitions_hit", "count", "higher"),
        ("ingest.artifacts_changed", "count", "lower"),
        ("ingest.artifacts_rendered", "count", "lower"),
    )
)
