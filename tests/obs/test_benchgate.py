"""Tests for the benchmark regression gate."""

import copy
import json

import pytest

from repro.obs.benchgate import (
    HIGHER,
    LOWER,
    SCHEMA,
    compare,
    extract_gate_metrics,
    load_artifact,
    render_gate,
    write_gate_json,
)

SCENARIO_BENCH = {
    "schema": "repro.bench/1",
    "timings_seconds": {
        "serial_cold": {"rounds": 3, "min": 2.0, "mean": 2.1},
        "store": {"rounds": 3, "min": 0.4, "mean": 0.5},
        "warm": {"rounds": 3, "min": 0.05, "mean": 0.06},
    },
}

SERVE_BENCH = {
    "schema": "repro.bench.serve/1",
    "phases": {
        "cold": {"requests": 1, "seconds": 3.0, "requests_per_second": 0.33},
        "warm": {
            "requests": 200,
            "seconds": 1.0,
            "requests_per_second": 200.0,
            "latency_ms": {"p50": 4.0, "p95": 9.0, "max": 30.0},
        },
    },
}


# -- metric extraction --------------------------------------------------------


def test_extract_scenario_metrics():
    metrics = extract_gate_metrics(SCENARIO_BENCH)
    assert metrics == {
        "timings_seconds.serial_cold.min": (2.0, LOWER),
        "timings_seconds.store.min": (0.4, LOWER),
        "timings_seconds.warm.min": (0.05, LOWER),
    }


def test_extract_serve_metrics_is_direction_aware_and_skips_cold():
    metrics = extract_gate_metrics(SERVE_BENCH)
    assert metrics == {
        "phases.warm.requests_per_second": (200.0, HIGHER),
        "phases.warm.latency_ms.p50": (4.0, LOWER),
        "phases.warm.latency_ms.p95": (9.0, LOWER),
    }


def test_extract_rejects_unknown_schema():
    with pytest.raises(ValueError, match="schema"):
        extract_gate_metrics({"schema": "repro.chaos/1"})
    with pytest.raises(ValueError, match="no gated metrics"):
        extract_gate_metrics({"schema": "repro.bench/1"})


# -- comparison ---------------------------------------------------------------


def test_self_comparison_passes():
    report = compare(SCENARIO_BENCH, SCENARIO_BENCH)
    assert report["schema"] == SCHEMA
    assert report["passed"] is True
    assert report["failed"] == 0
    assert all(check["ok"] for check in report["checks"])


def test_two_x_regression_fails_scenario_bench():
    slow = copy.deepcopy(SCENARIO_BENCH)
    slow["timings_seconds"]["warm"]["min"] = 0.1  # 2x the baseline
    report = compare(SCENARIO_BENCH, slow)
    assert report["passed"] is False
    (failure,) = [c for c in report["checks"] if not c["ok"]]
    assert failure["metric"] == "timings_seconds.warm.min"
    assert failure["ratio"] == pytest.approx(2.0)


def test_throughput_halving_fails_serve_bench():
    slow = copy.deepcopy(SERVE_BENCH)
    slow["phases"]["warm"]["requests_per_second"] = 100.0
    report = compare(SERVE_BENCH, slow)
    assert report["passed"] is False
    (failure,) = [c for c in report["checks"] if not c["ok"]]
    assert failure["metric"] == "phases.warm.requests_per_second"
    assert failure["direction"] == HIGHER


def test_improvements_always_pass():
    fast = copy.deepcopy(SCENARIO_BENCH)
    for entry in fast["timings_seconds"].values():
        entry["min"] = entry["min"] / 10
    assert compare(SCENARIO_BENCH, fast)["passed"] is True

    better = copy.deepcopy(SERVE_BENCH)
    better["phases"]["warm"]["requests_per_second"] = 1000.0
    better["phases"]["warm"]["latency_ms"]["p95"] = 1.0
    assert compare(SERVE_BENCH, better)["passed"] is True


def test_regression_within_tolerance_passes():
    slightly_slow = copy.deepcopy(SCENARIO_BENCH)
    slightly_slow["timings_seconds"]["warm"]["min"] = 0.06  # +20% < 25%
    assert compare(SCENARIO_BENCH, slightly_slow)["passed"] is True
    assert compare(SCENARIO_BENCH, slightly_slow, tolerance=0.1)["passed"] is False


def test_zero_baseline_is_skipped_not_divided():
    zero = copy.deepcopy(SCENARIO_BENCH)
    zero["timings_seconds"]["warm"]["min"] = 0.0
    report = compare(zero, SCENARIO_BENCH)
    check = next(
        c for c in report["checks"] if c["metric"] == "timings_seconds.warm.min"
    )
    assert check["ok"] is True
    assert check["ratio"] is None
    assert "zero" in check["detail"]


def test_metric_missing_from_fresh_fails():
    partial = copy.deepcopy(SCENARIO_BENCH)
    del partial["timings_seconds"]["warm"]
    report = compare(SCENARIO_BENCH, partial)
    assert report["passed"] is False
    check = next(
        c for c in report["checks"] if c["metric"] == "timings_seconds.warm.min"
    )
    assert check["fresh"] is None


def test_schema_mismatch_and_bad_tolerance_raise():
    with pytest.raises(ValueError, match="schema mismatch"):
        compare(SCENARIO_BENCH, SERVE_BENCH)
    with pytest.raises(ValueError, match="tolerance"):
        compare(SCENARIO_BENCH, SCENARIO_BENCH, tolerance=0.0)
    with pytest.raises(ValueError, match="tolerance"):
        compare(SCENARIO_BENCH, SCENARIO_BENCH, tolerance=12.0)


# -- io and rendering ---------------------------------------------------------


def test_load_artifact(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(SCENARIO_BENCH), encoding="utf-8")
    assert load_artifact(path) == SCENARIO_BENCH
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ValueError, match="JSON object"):
        load_artifact(bad)


def test_render_gate_marks_failures():
    slow = copy.deepcopy(SCENARIO_BENCH)
    slow["timings_seconds"]["warm"]["min"] = 0.2
    text = render_gate(compare(SCENARIO_BENCH, slow))
    assert "FAIL  timings_seconds.warm.min" in text
    assert "PASS  timings_seconds.store.min" in text
    assert text.strip().endswith("verdict: FAIL (1 regressed)")


def test_write_gate_json_roundtrip(tmp_path):
    report = compare(SCENARIO_BENCH, SCENARIO_BENCH)
    path = write_gate_json(tmp_path / "out" / "gate.json", report)
    assert json.loads(path.read_text(encoding="utf-8"))["passed"] is True


def test_committed_baselines_self_gate():
    # the acceptance criterion: `repro bench gate` exits zero on the
    # committed baselines, because self-comparison can never regress
    from pathlib import Path

    repo = Path(__file__).resolve().parents[2]
    for name in ("BENCH_scenario.json", "BENCH_serve.json"):
        artifact = load_artifact(repo / name)
        assert compare(artifact, artifact)["passed"] is True
