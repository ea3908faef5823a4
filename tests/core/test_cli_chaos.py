"""CLI surface of the resilience work: ``repro chaos`` and ``--strict``."""

import json

import pytest

from repro.cli import build_parser, main


def test_chaos_exits_zero_and_prints_the_report(capsys):
    assert main(["chaos", "--seed", "42", "--inject", "cables:truncate"]) == 0
    out = capsys.readouterr().out
    assert "CHAOS: seed=42 verdict=degraded-but-complete" in out
    assert "degraded cables:" in out
    assert "ingestion drill:" in out


def test_chaos_out_writes_the_json_artifact(tmp_path, capsys):
    artifact = tmp_path / "chaos-report.json"
    assert (
        main(
            [
                "chaos",
                "--seed",
                "42",
                "--inject",
                "cables:truncate",
                "--out",
                str(artifact),
            ]
        )
        == 0
    )
    doc = json.loads(artifact.read_text())
    assert doc["schema"] == "repro.chaos/1"
    assert doc["seed"] == 42
    assert doc["verdict"] == "degraded-but-complete"
    assert f"chaos report written to {artifact}" in capsys.readouterr().err


def test_chaos_rejects_bad_spec(capsys):
    with pytest.raises(ValueError, match="unknown injector"):
        main(["chaos", "--inject", "cables:melt"])


def test_strict_flag_is_global_and_defaults_off():
    args = build_parser().parse_args(["report"])
    assert args.strict is False
    args = build_parser().parse_args(["--strict", "report"])
    assert args.strict is True


def test_chaos_strict_propagates_the_failure():
    with pytest.raises(Exception):
        main(["--strict", "chaos", "--inject", "cables:truncate"])
