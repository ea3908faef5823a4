"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``report``            -- run every exhibit and print the full report.
* ``exhibit <id>...``   -- run selected exhibits (``fig01``..``table2``).
* ``list [--json]``     -- list exhibit ids with their titles.
* ``scorecard <cc>``    -- regional scorecard for one LACNIC country.
* ``export <dir>``      -- write every dataset in its wire format.
* ``serve``             -- serve exhibits/report/scorecards over HTTP.
* ``stats``             -- profile a scenario build + full exhibit run
  (``repro --no-cache stats`` to time the exhibits' compute: on a warm
  cache they load from their entries and record no run).
* ``bench gate``        -- compare a fresh benchmark artifact against a
  committed ``BENCH_*.json`` baseline; non-zero exit on regression.
* ``cache info|clear``  -- inspect or empty the persistent dataset cache.
* ``chaos``             -- run the pipeline under injected faults and
  print the deterministic resilience report.

Global flags (before the command): ``--trace`` enables span tracing,
``--metrics-json PATH`` writes the ``repro.obs/1`` artifact after the
command, ``--log-format json|text`` selects the structured-log
rendering (``--log-level`` its severity floor), ``--cache-dir DIR``
relocates the persistent dataset cache (default ``~/.cache/repro``),
``--no-cache`` disables it for the run, and ``--strict`` fails fast on
a dataset build error instead of degrading (the CLI is lenient by
default; see ``docs/RELIABILITY.md``).
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
    """A Scenario honouring the global cache/strictness flags.

    Datasets stay lazy and build on first touch, so a command pays only
    for what it reads.  CLI scenarios are lenient unless ``--strict``: a
    failing dataset degrades (reports annotate coverage) instead of
    crashing the command.
    """
    return Scenario(
        cache=_resolve_cache(args),
        strict=getattr(args, "strict", False),
        **params,
    )


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
    """Serve the API from one process on one port.

    The port is bound first, so a taken one fails the command before a
    journal opens or a world builds; an ``--ingest-dir`` another open
    journal holds fails it before a world builds too.  The server then
    builds its world (after any journal recovery) before it listens,
    and fills its artifact plane as each static path is first requested.
    """
    import socket

    try:
        sock = socket.create_server((args.host, args.port), backlog=512)
    except OSError as exc:
        print(f"repro serve: cannot listen: {exc}", file=sys.stderr)
        return 1
    from repro.serve.aio import AioServer, run_aio
    from repro.serve.handlers import ServeContext
    from repro.serve.pool import ScenarioPool

    cache = _resolve_cache(args)
    server = AioServer(
        ServeContext(pool=ScenarioPool(cache=cache, strict=args.strict)),
        sock=sock,
        verbose=args.verbose,
    )
    if args.ingest_dir:
        from repro.ingest.wal import WalLockedError
        from repro.serve.ingestor import enable_ingest

        try:
            enable_ingest(
                server,
                args.ingest_dir,
                cache=cache,
                strict=args.strict,
            )
        except WalLockedError as exc:
            print(f"repro serve: cannot open --ingest-dir: {exc}", file=sys.stderr)
            sock.close()
            return 1
    print(
        f"serving on http://{args.host}:{sock.getsockname()[1]} "
        "(SIGTERM or Ctrl-C to stop)",
        file=sys.stderr,
    )
    run_aio(server)
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
        scenario.build_all()
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


def _cmd_chaos(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.faults import run_chaos

    # Chaos runs never consult the disk cache: a warm entry would mask
    # the injected build fault the drill exists to exercise.
    report = run_chaos(seed=args.seed, specs=args.inject, strict=args.strict)
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
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _port(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be a port in 0-65535, got {text!r}")
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
        type=_port,
        default=8321,
        help="bind port (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each request to stderr"
    )
    serve.add_argument(
        "--ingest-dir",
        metavar="DIR",
        default=None,
        help="enable POST /v1/ingest/<format>, journaling batches into "
        "this write-ahead-log directory and hot-swapping the serving "
        "surface after each rebuild",
    )
    serve.set_defaults(fn=_cmd_serve)

    validate = sub.add_parser("validate", help="cross-dataset consistency checks")
    validate.set_defaults(fn=_cmd_validate)

    stats = sub.add_parser(
        "stats",
        help="profile a scenario build and full exhibit run (exhibits loaded "
        "from the cache record no run: `repro --no-cache stats` profiles compute)",
    )
    stats.add_argument("--ndt-tests-per-month", type=_positive_int, default=40)
    stats.add_argument("--gpdns-samples-per-month", type=_positive_int, default=2)
    stats.add_argument(
        "--spans", action="store_true", help="also print the span tree"
    )
    stats.set_defaults(fn=_cmd_stats)

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
    chaos.set_defaults(fn=_cmd_chaos)
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
