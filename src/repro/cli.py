"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``report``            -- run every exhibit and print the full report.
* ``exhibit <id>...``   -- run selected exhibits (``fig01``..``table2``).
* ``list [--json]``     -- list exhibit ids with their titles.
* ``scorecard <cc>``    -- regional scorecard for one LACNIC country.
* ``export <dir>``      -- write every dataset in its wire format.
* ``serve``             -- serve exhibits/report/scorecards over HTTP.
* ``stats``             -- profile a scenario build + full exhibit run.
* ``profile``           -- sampling wall-time profile of a build + run
  (``repro.prof/1`` artifact, collapsed flamegraph stacks).
* ``bench gate``        -- compare a fresh benchmark artifact against a
  committed ``BENCH_*.json`` baseline; non-zero exit on regression.
* ``cache info|clear``  -- inspect or empty the persistent dataset cache.
* ``chaos``             -- run the pipeline under injected faults and
  print the deterministic resilience report; ``--drill ingest-crash``
  SIGKILLs real ingest runs at injected points and proves journal
  replay converges.
* ``ingest``            -- journal a batch into the durable ingest WAL
  (journal-before-ack; ``--apply`` rebuilds dirty partitions and
  checkpoints).

Global flags (before the command): ``--trace`` enables span tracing,
``--metrics-json PATH`` writes the ``repro.obs/1`` artifact after the
command, ``--log-format json|text`` selects the structured-log
rendering (``--log-level`` its severity floor), ``--jobs N`` prebuilds
all datasets on N worker threads, ``--cache-dir DIR`` relocates the
persistent dataset cache (default ``~/.cache/repro``), ``--no-cache``
disables it for the run, and ``--strict`` fails fast on a dataset build
error instead of degrading (the CLI is lenient by default; see
``docs/RELIABILITY.md``).
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from typing import Sequence

from repro.core import Scenario, exhibit_ids, run_exhibit
from repro.core.exhibit import exhibit_catalog
from repro.core.report import render_report


def _resolve_cache(args: argparse.Namespace):
    """The DatasetCache the flags ask for, or None under ``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    from repro.exec import DatasetCache

    return DatasetCache(args.cache_dir)  # None root -> ~/.cache/repro


def _scenario(args: argparse.Namespace, **params: int) -> Scenario:
    """A Scenario honouring the global cache/parallelism/strictness flags.

    With ``--jobs N>1`` every dataset is prebuilt on the pool up front
    (lazy access afterwards is a dict hit); otherwise datasets stay lazy
    and build serially on first touch.  CLI scenarios are lenient unless
    ``--strict``: a failing dataset degrades (reports annotate coverage)
    instead of crashing the command.
    """
    scenario = Scenario(
        cache=_resolve_cache(args),
        strict=getattr(args, "strict", False),
        **params,
    )
    if args.jobs > 1:
        scenario.build_all(max_workers=args.jobs)
    return scenario


def _cmd_report(args: argparse.Namespace) -> int:
    print(render_report(_scenario(args)))
    return 0


def _cmd_exhibit(args: argparse.Namespace) -> int:
    known = exhibit_ids()
    unknown = [e for e in args.ids if e not in known]
    if unknown:
        hints = [
            match
            for e in unknown
            for match in difflib.get_close_matches(e, known, n=1, cutoff=0.4)
        ]
        print(f"unknown exhibit(s): {', '.join(unknown)}", file=sys.stderr)
        if hints:
            print(f"did you mean: {', '.join(dict.fromkeys(hints))}?", file=sys.stderr)
        print(f"known: {', '.join(known)}", file=sys.stderr)
        return 2
    scenario = _scenario(args)
    for exhibit_id in args.ids:
        try:
            exhibit = run_exhibit(scenario, exhibit_id)
        except KeyError:
            # Unreachable through the validation above, but registry and
            # id-list can only drift apart in one process for so long:
            # keep the CLI contract (exit 2, no traceback) either way.
            print(f"unknown exhibit(s): {exhibit_id}", file=sys.stderr)
            print(f"known: {', '.join(known)}", file=sys.stderr)
            return 2
        print(exhibit.render())
        print()
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    # One listing representation, shared with the server's /v1/exhibits.
    catalog = exhibit_catalog()
    if args.json:
        print(json.dumps(catalog, indent=2))
        return 0
    if not catalog:
        return 0
    width = max(len(entry["id"]) for entry in catalog)
    for entry in catalog:
        print(f"{entry['id']:<{width}}  {entry['title']}")
    return 0


def _cmd_scorecard(args: argparse.Namespace) -> int:
    from repro.core.scorecard import (
        NonLacnicCountryError,
        UnknownCountryError,
        build_scorecard,
        check_country,
    )

    code = args.country.upper()
    try:
        check_country(code)  # reject typos before paying for any build
    except UnknownCountryError:
        print(f"unknown country code: {code}", file=sys.stderr)
        return 2
    except NonLacnicCountryError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(build_scorecard(_scenario(args), code).render())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.timeseries.month import Month

    out = Path(args.directory)
    out.mkdir(parents=True, exist_ok=True)
    scenario = _scenario(args, ndt_tests_per_month=args.ndt_tests_per_month)
    month = Month(2023, 12)

    from repro.mlab.ndt import write_ndt_jsonl

    writes = [
        ("delegated-lacnic-extended-latest", lambda p: scenario.delegations.save(p)),
        (f"{month}.as-rel.txt", lambda p: scenario.asrel[month].save(p)),
        (
            f"routeviews-rv2-{month}.pfx2as",
            lambda p: scenario.prefix2as[month].save(p),
        ),
        ("peeringdb_dump.json", lambda p: scenario.peeringdb.latest().save(p)),
        ("submarine_cables.json", lambda p: scenario.cables.save(p)),
        ("imf_indicators.csv", lambda p: scenario.macro.save(p)),
        ("apnic_populations.csv", lambda p: scenario.populations.save(p)),
        ("offnets_artifacts.csv", lambda p: scenario.offnets.save(p)),
        ("ipv6_adoption.csv", lambda p: scenario.ipv6.save(p)),
        ("webdeps_survey.csv", lambda p: scenario.site_survey.save(p)),
        ("ndt_downloads.jsonl", lambda p: write_ndt_jsonl(scenario.ndt_tests, p)),
    ]
    for filename, save in writes:
        save(out / filename)
    print(f"exported {len(writes)} datasets to {out}/")
    return 0


def _cmd_narrative(args: argparse.Namespace) -> int:
    from repro.core.narrative import render_findings

    print(render_findings(_scenario(args)))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.core.figures import THREE_PANEL_FIGURES
    from repro.core.plotting import render_three_panel

    wanted = args.ids or sorted(THREE_PANEL_FIGURES)
    unknown = [f for f in wanted if f not in THREE_PANEL_FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(sorted(THREE_PANEL_FIGURES))}", file=sys.stderr)
        return 2
    scenario = _scenario(args)
    for figure_id in wanted:
        print(render_three_panel(THREE_PANEL_FIGURES[figure_id](scenario)))
        print()
    return 0


def _cmd_outages(_args: argparse.Namespace) -> int:
    from repro.outages import OutageDetector, severity_ranking, synthesize_connectivity
    from repro.outages.synthetic import signal_countries

    detector = OutageDetector()
    per_country = {
        cc: detector.detect(synthesize_connectivity(cc))
        for cc in signal_countries()
    }
    for cc, episodes in sorted(per_country.items()):
        for episode in episodes:
            print(
                f"{cc}  {episode.start} .. {episode.end}  "
                f"({episode.duration_days}d, severity {episode.severity:.2f})"
            )
    print()
    for cc, hours in severity_ranking(per_country):
        print(f"{cc}: {hours:7.1f} severity-weighted outage hours")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.validation import validate_scenario

    issues = validate_scenario(_scenario(args))
    if not issues:
        print("all consistency checks passed")
        return 0
    for issue in issues:
        print(f"[{issue.severity}] {issue.check}: {issue.detail}")
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.engine == "asyncio":
        if args.ingest_dir:
            # The asyncio plane serves a sealed, immutable store; live
            # ingestion needs the threaded engine's hot-swap surface.
            print(
                "--ingest-dir requires --engine threaded "
                "(the asyncio artifact plane is sealed)",
                file=sys.stderr,
            )
            return 2
        return _serve_asyncio(args)
    from repro.serve import create_server, run

    cache_max_bytes = (
        args.response_cache_mb * 1024 * 1024 if args.response_cache_mb else None
    )
    server = create_server(
        host=args.host,
        port=args.port,
        cache=_resolve_cache(args),
        jobs=args.jobs,
        prebuild=not args.no_prebuild,
        verbose=args.verbose,
        strict=args.strict,
        deadline_seconds=args.deadline,
        max_inflight=args.max_inflight,
        trace_sample_rate=args.trace_sample_rate,
        trace_dir=args.trace_dir,
        cache_max_bytes=cache_max_bytes,
        ingest_dir=args.ingest_dir,
        ingest_max_backlog=args.ingest_max_backlog,
    )
    if not args.no_prebuild:
        print("scenario prebuilt; serving warm", file=sys.stderr)
    print(f"serving on {server.url} (SIGTERM or Ctrl-C to stop)", file=sys.stderr)
    run(server)  # returns after the drain completes
    print("server drained; exiting", file=sys.stderr)
    return 0


def _serve_asyncio(args: argparse.Namespace) -> int:
    """The asyncio engine: sealed artifact plane, optional pre-forked workers.

    The scenario builds and the whole static surface is materialized
    *before* any socket accepts (and before any fork, so workers share
    the sealed store copy-on-write).
    """
    from repro.serve.aio import create_aio_server, run_aio, run_workers
    from repro.serve.artifacts import build_artifact_store
    from repro.serve.handlers import ServeContext
    from repro.serve.pool import ScenarioPool

    pool = ScenarioPool(
        cache=_resolve_cache(args), build_workers=args.jobs, strict=args.strict
    )
    context = ServeContext(pool=pool, params={})
    store = build_artifact_store(context, workers=args.jobs)
    print(
        f"artifact plane sealed: {len(store)} responses, "
        f"{store.total_bytes} bytes, fingerprint {store.fingerprint()[:12]}",
        file=sys.stderr,
    )

    def _make(sock):
        return create_aio_server(
            verbose=args.verbose,
            deadline_seconds=args.deadline,
            max_inflight=args.max_inflight,
            artifacts=store,
            context=context,
            sock=sock,
        )

    def _announce(port: int) -> None:
        print(
            f"serving on http://{args.host}:{port} "
            f"[engine=asyncio workers={args.workers}] "
            "(SIGTERM or Ctrl-C to stop)",
            file=sys.stderr,
        )

    if args.workers > 1:
        run_workers(
            _make, args.workers, args.host, args.port, on_bound=_announce
        )
    else:
        from repro.serve.aio import _reuseport_socket

        sock = _reuseport_socket(args.host, args.port)
        _announce(sock.getsockname()[1])
        run_aio(_make(sock))
    print("server drained; exiting", file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.core.report import run_all
    from repro.obs import (
        enable_tracing,
        render_metrics,
        render_spans,
        render_timer_group,
        trace_span,
    )

    enable_tracing(True)
    scenario = Scenario(
        cache=_resolve_cache(args),
        ndt_tests_per_month=args.ndt_tests_per_month,
        gpdns_samples_per_month=args.gpdns_samples_per_month,
        strict=args.strict,
    )
    with trace_span("stats.scenario.build"):
        scenario.build_all(max_workers=args.jobs)
    run_all(scenario)

    print(render_timer_group("dataset builds", "scenario.build."))
    print()
    print(render_timer_group("exhibit runs", "exhibit.run."))
    print()
    print(render_metrics())
    if args.spans:
        print()
        print(render_spans())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.report import run_all
    from repro.obs.profiling import (
        SamplingProfiler,
        collapsed_text,
        render_profile,
        top_labels,
        write_profile_json,
    )

    # Two calibrated sizes: the paper-default world and a small one for
    # quick iteration on the profiler itself.
    sizes: dict[str, dict[str, int]] = {
        "default": {},
        "small": {"ndt_tests_per_month": 5, "gpdns_samples_per_month": 1},
    }
    params = sizes[args.scenario]
    profiler = SamplingProfiler(interval=args.interval)
    with profiler:
        scenario = Scenario(
            cache=_resolve_cache(args), strict=args.strict, **params
        )
        scenario.build_all(max_workers=args.jobs)
        run_all(scenario)
    result = profiler.result()

    print(render_profile(result))
    builders = top_labels(result, prefix="scenario.build.", limit=args.top)
    if builders:
        print()
        print(f"top {len(builders)} dataset generators by self time:")
        for row in builders:
            name = str(row["label"])[len("scenario.build."):]
            print(
                f"  {name:<24} {row['samples']:5d} samples"
                f"  ~{row['est_seconds']:.3f}s"
            )
    if args.out:
        path = write_profile_json(args.out, result)
        print(f"profile artifact written to {path}", file=sys.stderr)
    if args.folded:
        folded = Path(args.folded)
        folded.parent.mkdir(parents=True, exist_ok=True)
        folded.write_text(collapsed_text(result), encoding="utf-8")
        print(f"collapsed stacks written to {folded}", file=sys.stderr)
    return 0


def _cmd_bench_gate(args: argparse.Namespace) -> int:
    from repro.obs.benchgate import (
        compare,
        load_artifact,
        render_gate,
        write_gate_json,
    )

    try:
        baseline = load_artifact(args.baseline)
        fresh = load_artifact(args.fresh) if args.fresh else baseline
        report = compare(baseline, fresh, tolerance=args.tolerance)
    except (OSError, ValueError) as exc:
        print(f"bench gate: {exc}", file=sys.stderr)
        return 2
    print(render_gate(report))
    if args.gate_out:
        path = write_gate_json(args.gate_out, report)
        print(f"gate report written to {path}", file=sys.stderr)
    return 0 if report["passed"] else 1


def _cmd_ingest(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.ingest.service import (
        DEFAULT_MAX_BACKLOG,
        IngestBacklogError,
        IngestService,
        IngestValidationError,
        apply_ingest,
    )

    # Construction is recovery: the journal is scanned, torn tails
    # truncated, and the last checkpoint read before anything new lands.
    service = IngestService(
        args.wal_dir,
        max_backlog=args.max_backlog or DEFAULT_MAX_BACKLOG,
        strict=args.strict,
    )
    if args.file is not None:
        try:
            lines = Path(args.file).read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            print(f"cannot read batch file: {exc}", file=sys.stderr)
            return 2
    elif not sys.stdin.isatty():
        lines = sys.stdin.read().splitlines()
    else:
        lines = []
    lines = [line for line in lines if line.strip()]
    meta = {"month": args.month} if args.month else {}
    receipt = None
    if lines:
        try:
            receipt = service.submit(args.format, lines, meta)
        except IngestBacklogError as exc:
            print(
                f"rejected: {exc} (retry after {exc.retry_after}s)",
                file=sys.stderr,
            )
            return 3
        except (IngestValidationError, ValueError) as exc:
            print(f"rejected: {exc}", file=sys.stderr)
            return 2
        verb = "re-acked duplicate" if receipt.duplicate else "journaled"
        print(
            f"{verb} seq {receipt.seq}: {receipt.accepted} records "
            f"({receipt.quarantined} quarantined) -> "
            f"{', '.join(receipt.partitions)} [backlog {receipt.backlog}]",
            file=sys.stderr,
        )
    result = None
    if args.apply and service.backlog() > 0:
        params = {
            "ndt_tests_per_month": args.ndt_tests_per_month,
            "gpdns_samples_per_month": args.gpdns_samples_per_month,
        }
        result = apply_ingest(
            service,
            _resolve_cache(args),
            params,
            jobs=args.jobs,
            strict=args.strict,
        )
        print(
            f"applied through seq {result.applied_seq}; artifact "
            f"fingerprint {result.artifact_fingerprint[:12]}",
            file=sys.stderr,
        )
    elif args.apply:
        print("journal fully applied; nothing to do", file=sys.stderr)
    if args.receipt:
        doc = {
            "schema": "repro.ingest-run/1",
            "receipt": receipt.to_dict() if receipt else None,
            "journaled": service.wal.last_seq,
            "applied_seq": service.applied_seq,
            "fingerprints": (
                result.fingerprints()
                if result is not None
                else service.applied_fingerprints
            ),
        }
        path = Path(args.receipt)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"receipt written to {path}", file=sys.stderr)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from pathlib import Path

    if args.drill:
        from repro.ingest.drill import render_drill, run_ingest_crash_drill

        if args.points:
            report = run_ingest_crash_drill(points=tuple(args.points))
        else:
            report = run_ingest_crash_drill()
        print(render_drill(report))
        if args.out:
            Path(args.out).write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n"
            )
            print(f"chaos report written to {args.out}", file=sys.stderr)
        return 0 if report["passed"] else 1

    from repro.faults import run_chaos

    # Chaos runs never consult the disk cache: a warm entry would mask
    # the injected build fault the drill exists to exercise.
    report = run_chaos(
        seed=args.seed,
        specs=args.inject,
        strict=args.strict,
        jobs=args.jobs,
    )
    print(report.render())
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
        print(f"chaos report written to {args.out}", file=sys.stderr)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.exec import DatasetCache

    # Maintenance always targets the resolved directory; --no-cache only
    # governs whether *builds* consult it.
    cache = DatasetCache(args.cache_dir)
    if args.action == "info":
        print(cache.info().render())
        return 0
    removed = cache.clear()
    print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Ten years of the Venezuelan crisis - An "
        "Internet perspective' (SIGCOMM 2024)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="collect wall-time spans during the command",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write the repro.obs/1 metrics/trace artifact after the command",
    )
    parser.add_argument(
        "--log-format",
        choices=["text", "json"],
        default="text",
        help="structured-log rendering on stderr (default: text)",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="info",
        help="minimum severity emitted by the structured logger",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="prebuild all scenario datasets on N worker threads "
        "(dependency-aware; 1 = lazy serial builds)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent dataset cache directory "
        "(default: $XDG_CACHE_HOME/repro or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="build every dataset in-process, ignoring the disk cache",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail fast on the first dataset build error instead of "
        "degrading that dataset and annotating coverage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="run every exhibit")
    report.set_defaults(fn=_cmd_report)

    exhibit = sub.add_parser("exhibit", help="run selected exhibits")
    exhibit.add_argument("ids", nargs="+", metavar="ID")
    exhibit.set_defaults(fn=_cmd_exhibit)

    listing = sub.add_parser("list", help="list exhibit ids")
    listing.add_argument(
        "--json",
        action="store_true",
        help='emit the catalog as JSON: [{"id", "title"}, ...]',
    )
    listing.set_defaults(fn=_cmd_list)

    scorecard = sub.add_parser("scorecard", help="regional scorecard for a country")
    scorecard.add_argument("country", metavar="CC")
    scorecard.set_defaults(fn=_cmd_scorecard)

    export = sub.add_parser("export", help="export datasets in wire formats")
    export.add_argument("directory")
    export.add_argument("--ndt-tests-per-month", type=_positive_int, default=5)
    export.set_defaults(fn=_cmd_export)

    narrative = sub.add_parser("narrative", help="the computed headline findings")
    narrative.set_defaults(fn=_cmd_narrative)

    figures = sub.add_parser("figures", help="ASCII three-panel figures")
    figures.add_argument("ids", nargs="*", metavar="ID")
    figures.set_defaults(fn=_cmd_figures)

    outages = sub.add_parser("outages", help="detect the scripted blackouts")
    outages.set_defaults(fn=_cmd_outages)

    serve = sub.add_parser(
        "serve", help="serve exhibits, reports, and scorecards over HTTP"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="bind port (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--engine",
        choices=["threaded", "asyncio"],
        default="threaded",
        help="serving engine: 'threaded' (http.server, per-request "
        "render + response cache) or 'asyncio' (precomputed artifact "
        "plane, keep-alive, 10k+ req/s on one core)",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="asyncio engine only: pre-fork N worker processes sharing "
        "the port via SO_REUSEPORT (default: 1, single process)",
    )
    serve.add_argument(
        "--response-cache-mb",
        type=_positive_int,
        default=None,
        metavar="MB",
        help="threaded engine only: bound the response cache by total "
        "body bytes as well as entry count (default: entries only)",
    )
    serve.add_argument(
        "--no-prebuild",
        action="store_true",
        help="skip the startup scenario build; the first request pays it "
        "(single-flight: concurrent cold requests share one build)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each request to stderr"
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline; requests that cannot finish in time "
        "get a 503 with Retry-After (default: no deadline)",
    )
    serve.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=None,
        metavar="N",
        help="shed (503) requests beyond N concurrently in flight "
        "(healthz/metrics exempt; default: unlimited)",
    )
    serve.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="record spans for this fraction of requests (deterministic "
        "head sampling on the trace id; default: 0, disabled)",
    )
    serve.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="export a repro.trace/1 artifact per sampled request into DIR",
    )
    serve.add_argument(
        "--ingest-dir",
        metavar="DIR",
        default=None,
        help="threaded engine only: enable POST /v1/ingest/<format>, "
        "journaling batches into this write-ahead-log directory and "
        "hot-swapping the serving surface after each rebuild",
    )
    serve.add_argument(
        "--ingest-max-backlog",
        type=_positive_int,
        default=None,
        metavar="N",
        help="reject (429 + Retry-After) new ingest batches beyond N "
        "acked-but-unapplied (default: 64)",
    )
    serve.set_defaults(fn=_cmd_serve)

    validate = sub.add_parser("validate", help="cross-dataset consistency checks")
    validate.set_defaults(fn=_cmd_validate)

    stats = sub.add_parser(
        "stats", help="profile a scenario build and full exhibit run"
    )
    stats.add_argument("--ndt-tests-per-month", type=_positive_int, default=40)
    stats.add_argument("--gpdns-samples-per-month", type=_positive_int, default=2)
    stats.add_argument(
        "--spans", action="store_true", help="also print the span tree"
    )
    stats.set_defaults(fn=_cmd_stats)

    profile = sub.add_parser(
        "profile",
        help="sampling wall-time profile of a scenario build + exhibit run",
    )
    profile.add_argument(
        "--scenario",
        choices=["default", "small"],
        default="default",
        help="world size to profile (default: the paper-default scenario)",
    )
    profile.add_argument(
        "--interval",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="sampling interval (default: 5ms)",
    )
    profile.add_argument(
        "--top",
        type=_positive_int,
        default=10,
        metavar="N",
        help="dataset generators to list by self time (default: 10)",
    )
    profile.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the repro.prof/1 JSON artifact to PATH",
    )
    profile.add_argument(
        "--folded",
        metavar="PATH",
        default=None,
        help="write flamegraph-ready collapsed stacks to PATH",
    )
    profile.set_defaults(fn=_cmd_profile)

    bench = sub.add_parser(
        "bench", help="benchmark artifact tooling (regression gate)"
    )
    bench_sub = bench.add_subparsers(dest="bench_action", required=True)
    gate = bench_sub.add_parser(
        "gate",
        help="fail (exit 1) when a fresh bench artifact regresses past "
        "tolerance vs a committed baseline",
    )
    gate.add_argument(
        "--baseline",
        required=True,
        metavar="PATH",
        help="committed baseline artifact (BENCH_scenario.json / BENCH_serve.json)",
    )
    gate.add_argument(
        "--fresh",
        metavar="PATH",
        default=None,
        help="freshly produced artifact to gate (default: the baseline "
        "itself, a self-check that always passes)",
    )
    gate.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        metavar="FRACTION",
        help="allowed regression per metric (default: 0.25 = ±25%%)",
    )
    gate.add_argument(
        "--gate-out",
        metavar="PATH",
        default=None,
        help="write the repro.gate/1 comparison report to PATH",
    )
    gate.set_defaults(fn=_cmd_bench_gate)

    cache = sub.add_parser("cache", help="inspect or empty the dataset cache")
    cache.add_argument("action", choices=["info", "clear"])
    cache.set_defaults(fn=_cmd_cache)

    chaos = sub.add_parser(
        "chaos",
        help="run the pipeline under injected faults and print the "
        "resilience report",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fault-injection seed (same seed, same corruption, same report)",
    )
    chaos.add_argument(
        "--inject",
        action="append",
        default=None,
        metavar="DATASET[:INJECTOR]",
        help="fault spec; repeatable (default: the built-in drill plan)",
    )
    chaos.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the repro.chaos/1 JSON report to PATH",
    )
    chaos.add_argument(
        "--drill",
        choices=["ingest-crash"],
        default=None,
        help="run a crash drill instead of fault injection: "
        "'ingest-crash' SIGKILLs real ingest subprocesses at every "
        "injected point and proves journal replay converges to the "
        "uninterrupted fingerprints",
    )
    chaos.add_argument(
        "--points",
        action="append",
        choices=["post-ack", "mid-rebuild", "mid-swap"],
        default=None,
        metavar="POINT",
        help="restrict --drill ingest-crash to these crash points; "
        "repeatable (default: all three)",
    )
    chaos.set_defaults(fn=_cmd_chaos)

    ingest = sub.add_parser(
        "ingest",
        help="journal a batch into the durable ingest WAL "
        "(journal-before-ack, idempotent on content hash)",
    )
    ingest.add_argument(
        "format",
        choices=["atlas", "ndt", "peeringdb"],
        help="wire format of the batch",
    )
    ingest.add_argument(
        "file",
        nargs="?",
        default=None,
        metavar="FILE",
        help="batch file (JSONL for ndt/atlas, one JSON dump for "
        "peeringdb); omitted: read stdin, or — with --apply — just "
        "recover and apply the existing journal",
    )
    ingest.add_argument(
        "--wal-dir",
        required=True,
        metavar="DIR",
        help="write-ahead-log directory (created on first append)",
    )
    ingest.add_argument(
        "--month",
        default=None,
        metavar="YYYY-MM",
        help="target month for peeringdb dumps (required by that format)",
    )
    ingest.add_argument(
        "--apply",
        action="store_true",
        help="after journaling, rebuild dirty partitions, refresh the "
        "artifact fingerprints, and commit the checkpoint",
    )
    ingest.add_argument(
        "--receipt",
        metavar="PATH",
        default=None,
        help="write a repro.ingest-run/1 JSON receipt (ack + checkpoint "
        "fingerprints) to PATH",
    )
    ingest.add_argument(
        "--max-backlog",
        type=_positive_int,
        default=None,
        metavar="N",
        help="backlog bound for admission control (default: 64)",
    )
    ingest.add_argument(
        "--ndt-tests-per-month", type=_positive_int, default=40
    )
    ingest.add_argument(
        "--gpdns-samples-per-month", type=_positive_int, default=2
    )
    ingest.set_defaults(fn=_cmd_ingest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.trace:
        from repro.obs import enable_tracing

        enable_tracing(True)
    from repro.obs import configure_logging

    configure_logging(format=args.log_format, level=args.log_level)
    status = args.fn(args)
    if args.metrics_json:
        from repro.obs import write_metrics_json

        path = write_metrics_json(args.metrics_json)
        print(f"metrics artifact written to {path}", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
