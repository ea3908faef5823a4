"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig01" in out
    assert "table2" in out
    assert len(out.strip().splitlines()) == 23


def test_list_json_flag_emits_the_shared_catalog(capsys):
    import json

    from repro.core.exhibit import exhibit_catalog

    assert main(["list", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == exhibit_catalog()
    assert len(doc) == 23
    assert doc[0] == {
        "id": "fig01",
        "title": "Fig. 1: oil, GDP per capita, inflation and population collapse.",
    }


def test_list_empty_registry_prints_nothing_and_exits_zero(capsys, monkeypatch):
    # Regression: an empty exhibit registry used to crash the width
    # computation (max() of an empty sequence) instead of listing nothing.
    monkeypatch.setattr("repro.core.exhibit._REGISTRY", {})
    assert main(["list"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["list", "--json"]) == 0
    assert capsys.readouterr().out.strip() == "[]"


def test_exhibit_command(capsys):
    assert main(["exhibit", "fig01"]) == 0
    out = capsys.readouterr().out
    assert "FIG01" in out
    assert "81.49" in out


def test_exhibit_unknown_id(capsys):
    assert main(["exhibit", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "fig99" in err


def test_exhibit_unknown_id_suggests_and_exits_cleanly(capsys):
    # Regression: a typoed id must exit 2 with a suggestion, never a raw
    # KeyError traceback out of the exhibit registry.
    assert main(["exhibit", "tabel1"]) == 2
    err = capsys.readouterr().err
    assert "unknown exhibit(s): tabel1" in err
    assert "did you mean: table1?" in err
    assert "known:" in err


def test_exhibit_typo_in_multi_id_list_runs_nothing(capsys):
    assert main(["exhibit", "fig01", "fig9z"]) == 2
    captured = capsys.readouterr()
    assert "fig9z" in captured.err
    assert "FIG01" not in captured.out  # no partial output before the error


def test_scorecard_dataless_country_reports_coverage(capsys):
    # Regression: "none" rows used to trail off silently; the scorecard
    # now ends with an explicit n/5 coverage line.
    assert main(["scorecard", "BB"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "Barbados (BB) — latest snapshot"
    assert out.count(" none") == 5
    assert out.splitlines()[-1] == "  0/5 panels available"


def test_scorecard_rejects_unknown_country(capsys):
    assert main(["scorecard", "XX"]) == 2
    assert "unknown country" in capsys.readouterr().err


def test_scorecard_rejects_non_lacnic(capsys):
    assert main(["scorecard", "US"]) == 2
    assert "outside the LACNIC region" in capsys.readouterr().err


def test_export_command(tmp_path, capsys):
    out = tmp_path / "export"
    assert main(["export", str(out), "--ndt-tests-per-month", "1"]) == 0
    names = {p.name for p in out.iterdir()}
    assert "delegated-lacnic-extended-latest" in names
    assert "peeringdb_dump.json" in names
    assert "ndt_downloads.jsonl" in names
    assert len(names) == 11


def test_export_count_matches_files_written(tmp_path, capsys):
    out = tmp_path / "export"
    assert main(["export", str(out), "--ndt-tests-per-month", "1"]) == 0
    message = capsys.readouterr().out.strip()
    reported = int(message.split()[1])
    assert reported == len(list(out.iterdir()))


def test_narrative_command(capsys):
    assert main(["narrative"]) == 0
    out = capsys.readouterr().out
    assert out.count("* [") == 4
    assert "ALBA-1" in out


def test_figures_command(capsys):
    assert main(["figures", "fig03"]) == 0
    out = capsys.readouterr().out
    assert "FIG03" in out
    assert "VE*" in out


def test_figures_unknown(capsys):
    assert main(["figures", "fig99"]) == 2
    assert "fig99" in capsys.readouterr().err


def test_outages_command(capsys):
    assert main(["outages"]) == 0
    out = capsys.readouterr().out
    assert "2019-03-07" in out
    assert "severity-weighted" in out


def test_validate_command(capsys):
    assert main(["validate"]) == 0
    assert "all consistency checks passed" in capsys.readouterr().out


def test_stats_command_renders_metrics_tables(capsys):
    assert (
        main(
            [
                "stats",
                "--ndt-tests-per-month", "1",
                "--gpdns-samples-per-month", "1",
                "--spans",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    # Per-dataset build table covers every Scenario dataset.
    assert "dataset builds" in out
    for name in ("peeringdb", "asrel", "ndt_tests", "chaos_observations"):
        assert name in out
    assert "total:" in out and "across 16" in out
    # Per-exhibit table covers all 23 exhibits.
    assert "exhibit runs" in out and "across 23" in out
    # Counter and span sections render too.
    assert "scenario.dataset.built" in out
    assert "exhibit.runs" in out
    assert "spans" in out and "scenario.build.macro" in out


def test_metrics_json_flag_writes_valid_artifact(tmp_path, capsys):
    from repro.obs import metrics_from_json

    path = tmp_path / "metrics.json"
    assert main(["--metrics-json", str(path), "exhibit", "fig01"]) == 0
    doc = metrics_from_json(path.read_text(encoding="utf-8"))
    assert doc["metrics"]["timers"]["exhibit.run.fig01"]["count"] == 1
    assert doc["metrics"]["counters"]["exhibit.runs"] == 1


def test_metrics_json_creates_nested_parent_dirs(tmp_path, capsys):
    # Regression: --metrics-json into a directory that does not exist yet
    # must create it rather than dying with FileNotFoundError after the
    # command already ran.
    from repro.obs import metrics_from_json

    path = tmp_path / "out" / "nested" / "m.json"
    assert main(["--metrics-json", str(path), "list"]) == 0
    assert path.is_file()
    metrics_from_json(path.read_text(encoding="utf-8"))


def test_cache_info_and_clear_commands(tmp_path, capsys):
    cache_dir = tmp_path / "cachedir"
    assert main(["--cache-dir", str(cache_dir), "exhibit", "fig01"]) == 0
    capsys.readouterr()
    assert main(["--cache-dir", str(cache_dir), "cache", "info"]) == 0
    out = capsys.readouterr().out
    assert str(cache_dir) in out
    # fig01 touches only macro: its dataset entry and fig01's own.
    assert "entries         : 2" in out
    assert main(["--cache-dir", str(cache_dir), "cache", "clear"]) == 0
    assert "removed 2 cache entries" in capsys.readouterr().out
    assert main(["--cache-dir", str(cache_dir), "cache", "info"]) == 0
    assert "entries         : 0" in capsys.readouterr().out


def test_cache_warm_run_rebuilds_nothing(tmp_path, capsys):
    from repro.obs import metrics_from_json

    cache_dir = tmp_path / "cachedir"
    cold_json = tmp_path / "cold.json"
    warm_json = tmp_path / "warm.json"
    assert main(
        ["--cache-dir", str(cache_dir), "--metrics-json", str(cold_json),
         "exhibit", "fig01"]
    ) == 0
    cold_out = capsys.readouterr().out
    import repro.obs

    repro.obs.reset()  # the warm artifact must cover the warm run alone
    assert main(
        ["--cache-dir", str(cache_dir), "--metrics-json", str(warm_json),
         "exhibit", "fig01"]
    ) == 0
    warm_out = capsys.readouterr().out
    assert warm_out == cold_out  # byte-identical exhibit output
    cold = metrics_from_json(cold_json.read_text(encoding="utf-8"))
    warm = metrics_from_json(warm_json.read_text(encoding="utf-8"))
    cc, wc = cold["metrics"]["counters"], warm["metrics"]["counters"]
    assert cc["scenario.dataset.built"] > 0
    assert cc["scenario.derived.store"] == 1
    # fig01 comes from its own entry: no dataset is built or loaded.
    assert "scenario.dataset.built" not in wc
    assert "scenario.cache.hit" not in wc
    assert "scenario.cache.miss" not in wc
    assert "exhibit.runs" not in wc
    assert wc["scenario.derived.hit"] == 1


def test_warm_report_materialises_no_dataset_and_runs_no_exhibit(tmp_path, capsys):
    import repro.obs
    from repro.obs import get_registry

    cache_dir = tmp_path / "cachedir"
    assert main(["--cache-dir", str(cache_dir), "report"]) == 0
    cold_out = capsys.readouterr().out
    cold = get_registry().snapshot()["counters"]
    assert cold["scenario.derived.store"] == 23
    repro.obs.reset()
    assert main(["--cache-dir", str(cache_dir), "report"]) == 0
    assert capsys.readouterr().out == cold_out
    warm = get_registry().snapshot()["counters"]
    for name in (
        "scenario.dataset.built",
        "scenario.cache.hit",
        "scenario.cache.miss",
        "exhibit.runs",
    ):
        assert warm.get(name, 0) == 0, name
    assert warm["scenario.derived.hit"] == 23


def test_stats_on_a_warm_cache_records_no_exhibit_run(tmp_path, capsys):
    import repro.obs

    argv = [
        "--cache-dir", str(tmp_path / "cachedir"),
        "stats", "--ndt-tests-per-month", "1", "--gpdns-samples-per-month", "1",
    ]
    assert main(argv) == 0
    assert "across 23" in capsys.readouterr().out
    repro.obs.reset()
    assert main(argv) == 0
    out = capsys.readouterr().out
    exhibit_table = out.split("exhibit runs", 1)[1].split("\n\n", 1)[0]
    assert "(none recorded)" in exhibit_table
    assert "scenario.derived.hit" in out
    assert any(
        line.split()[:2] == ["scenario.derived.hit", "23"]
        for line in out.splitlines()
    )


def test_no_cache_flag_skips_the_cache(tmp_path, capsys):
    cache_dir = tmp_path / "cachedir"
    assert main(
        ["--no-cache", "--cache-dir", str(cache_dir), "exhibit", "fig01"]
    ) == 0
    assert not cache_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--jobs", "4", "report"],
        ["serve", "--workers", "2"],
        ["profile"],
        ["serve", "--trace-sample-rate", "1"],
        ["serve", "--trace-dir", "D"],
        ["serve", "--deadline", "1"],
        ["serve", "--max-inflight", "1"],
        ["serve", "--ingest-max-backlog", "1"],
        ["ingest", "ndt", "--wal-dir", "W", "--max-backlog", "1"],
        ["ingest", "ndt", "--wal-dir", "W"],
        ["chaos", "--drill", "ingest-crash"],
    ],
    ids=[
        "jobs", "workers", "profile", "trace-sample-rate", "trace-dir",
        "deadline", "max-inflight", "ingest-max-backlog", "max-backlog",
        "ingest", "drill",
    ],
)
def test_there_is_no_jobs_flag(argv):
    # Builds are serial, one process serves one port, cProfile profiles,
    # a server is traced by the global --trace, the thread pool bounds
    # live work, the ingest backlog bound is fixed and batches reach the
    # journal only through a server: each retired option or command is a
    # usage error.  Parsing alone, so a case that still parsed would not
    # run its command.
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2


@pytest.mark.parametrize("port", ["70000", "-1", "abc"])
def test_serve_port_out_of_range_is_a_usage_error(port, tmp_path, capsys):
    # Rejected while parsing: nothing binds and no journal is created.
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--port", port, "--ingest-dir", str(tmp_path / "wal")])
    assert excinfo.value.code == 2
    assert not (tmp_path / "wal").exists()
    err = capsys.readouterr().err
    assert f"must be a port in 0-65535, got '{port}'" in err
    assert "_port" not in err


def test_non_integer_count_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["export", str(tmp_path / "out"), "--ndt-tests-per-month", "x"])
    assert excinfo.value.code == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert "must be a positive integer, got 'x'" in err
    assert "_positive_int" not in err


def test_trace_flag_records_spans(capsys):
    from repro.obs import get_tracer

    assert main(["--trace", "exhibit", "fig04"]) == 0
    names = [record.name for record in get_tracer().finished()]
    assert "exhibit.run.fig04" in names
    assert "scenario.build.cables" in names


def test_exhibit_records_no_spans_without_trace_flag(capsys):
    from repro.obs import get_tracer

    assert main(["exhibit", "fig04"]) == 0
    assert get_tracer().finished() == []


# -- bench gate ---------------------------------------------------------------


def _bench_baseline_path():
    from pathlib import Path

    return Path(__file__).resolve().parents[2] / "BENCH_scenario.json"


def test_bench_gate_self_check_passes(capsys, tmp_path):
    gate_out = tmp_path / "gate.json"
    assert main(
        [
            "bench",
            "gate",
            "--baseline",
            str(_bench_baseline_path()),
            "--gate-out",
            str(gate_out),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out

    import json

    doc = json.loads(gate_out.read_text(encoding="utf-8"))
    assert doc["schema"] == "repro.gate/1"
    assert doc["passed"] is True


def test_bench_gate_fails_on_synthetic_regression(capsys, tmp_path):
    import json

    baseline = _bench_baseline_path()
    doc = json.loads(baseline.read_text(encoding="utf-8"))
    for entry in doc["timings_seconds"].values():
        entry["min"] = entry["min"] * 2  # a clean 2x regression
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(doc), encoding="utf-8")

    assert main(
        ["bench", "gate", "--baseline", str(baseline), "--fresh", str(fresh)]
    ) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "regressed" in out


def test_bench_gate_missing_artifact_exits_two(capsys, tmp_path):
    assert main(
        ["bench", "gate", "--baseline", str(tmp_path / "nope.json")]
    ) == 2
    assert "bench gate:" in capsys.readouterr().err


def test_report_bytes_unchanged_by_tracing_and_json_logging(capsys):
    assert main(["--no-cache", "report"]) == 0
    plain = capsys.readouterr().out
    assert main(
        ["--no-cache", "--trace", "--log-format", "json", "--log-level", "debug",
         "report"]
    ) == 0
    traced = capsys.readouterr().out
    # observability writes to stderr only; stdout stays byte-identical
    assert traced == plain
