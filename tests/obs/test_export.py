"""Tests for JSON export/round-trip and the text renderers."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    enable_tracing,
    get_registry,
    metrics_from_json,
    metrics_to_dict,
    metrics_to_json,
    render_metrics,
    render_spans,
    render_timer_group,
    trace_span,
    write_metrics_json,
)


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("bgp.asrel.rows_parsed").inc(1234)
    registry.gauge("mlab.ndt.tests_per_month").set(40)
    timer = registry.timer("exhibit.run.fig01")
    for ms in (5, 10, 15):
        timer.observe(ms / 1000)
    return registry


def test_json_round_trip_preserves_every_metric():
    registry = populated_registry()
    tracer = Tracer(enabled=True)
    with tracer.span("scenario.build.macro"):
        pass

    text = metrics_to_json(registry, tracer)
    doc = metrics_from_json(text)

    assert doc["schema"] == "repro.obs/1"
    assert doc["metrics"] == json.loads(json.dumps(registry.snapshot()))
    assert [s["name"] for s in doc["spans"]] == ["scenario.build.macro"]
    # Round-trip again: parse -> dump -> parse is a fixed point.
    assert metrics_from_json(json.dumps(doc)) == doc


def test_metrics_to_dict_uses_globals_by_default():
    get_registry().counter("global.default.count").inc(7)
    doc = metrics_to_dict()
    assert doc["metrics"]["counters"]["global.default.count"] == 7


def test_metrics_from_json_rejects_foreign_documents():
    with pytest.raises(ValueError):
        metrics_from_json("{}")
    with pytest.raises(ValueError):
        metrics_from_json('{"schema": "other/1", "metrics": {}, "spans": []}')
    with pytest.raises(ValueError):
        metrics_from_json(
            '{"schema": "repro.obs/1", "metrics": {"counters": {}}, "spans": []}'
        )


def test_write_metrics_json_creates_parents(tmp_path):
    registry = populated_registry()
    path = write_metrics_json(tmp_path / "deep" / "dir" / "m.json", registry)
    assert path.is_file()
    doc = metrics_from_json(path.read_text(encoding="utf-8"))
    assert doc["metrics"]["counters"]["bgp.asrel.rows_parsed"] == 1234


def test_render_metrics_tables():
    text = render_metrics(populated_registry())
    assert "counters" in text
    assert "bgp.asrel.rows_parsed" in text
    assert "1,234" in text
    assert "gauges" in text
    assert "timers" in text
    assert "exhibit.run.fig01" in text
    assert "p95" in text


def test_render_metrics_empty_registry():
    assert render_metrics(MetricsRegistry()) == ""


def test_render_spans_tree_indents_by_depth():
    tracer = Tracer(enabled=True)
    with tracer.span("outer.build.run"):
        with tracer.span("inner.build.run"):
            pass
    text = render_spans(tracer)
    outer_line = next(l for l in text.splitlines() if "outer.build.run" in l)
    inner_line = next(l for l in text.splitlines() if "inner.build.run" in l)
    assert inner_line.index("inner") > outer_line.index("outer")


def test_render_spans_placeholder_when_empty():
    assert "no spans" in render_spans(Tracer())


def test_render_timer_group_shares_sum_to_100():
    registry = MetricsRegistry()
    registry.timer("scenario.build.macro").observe(0.075)
    registry.timer("scenario.build.cables").observe(0.025)
    registry.timer("exhibit.run.fig01").observe(9.0)  # outside the prefix
    text = render_timer_group("dataset builds", "scenario.build.", registry)
    assert "macro" in text and "cables" in text
    assert "fig01" not in text
    assert "75.0%" in text and "25.0%" in text
    assert "across 2" in text


def test_render_timer_group_empty_prefix():
    text = render_timer_group("exhibits", "exhibit.run.", MetricsRegistry())
    assert "(none recorded)" in text


def test_global_span_export_via_trace_span():
    enable_tracing(True)
    with trace_span("export.check.run"):
        pass
    doc = metrics_from_json(metrics_to_json())
    assert any(s["name"] == "export.check.run" for s in doc["spans"])

