"""Tests for structured logging: record fields, levels and rendering."""

import json

import pytest

from repro.obs.logging import (
    CapturedLogs,
    configure_logging,
    get_logger,
    reset_logging,
)


@pytest.fixture()
def sink():
    captured = CapturedLogs()
    configure_logging(format="json", stream=captured, level="debug")
    yield captured
    reset_logging()


def test_json_record_fields(sink):
    get_logger("repro.test").info("test.event.fired", answer=42, name="x")
    (record,) = sink.records()
    assert record["level"] == "info"
    assert record["logger"] == "repro.test"
    assert record["event"] == "test.event.fired"
    assert record["answer"] == 42
    assert record["name"] == "x"
    assert "ts" in record


def test_level_gate():
    captured = CapturedLogs()
    configure_logging(format="json", stream=captured, level="warning")
    try:
        log = get_logger("repro.test")
        log.debug("test.event.debug")
        log.info("test.event.info")
        log.warning("test.event.warning")
        log.error("test.event.error")
    finally:
        reset_logging()
    events = [r["event"] for r in captured.records()]
    assert events == ["test.event.warning", "test.event.error"]


def test_exception_record_carries_stack(sink):
    try:
        raise RuntimeError("boom")
    except RuntimeError as exc:
        get_logger("repro.test").exception("test.event.crashed", exc, endpoint="report")
    (record,) = sink.records()
    assert record["level"] == "error"
    assert record["error_type"] == "RuntimeError"
    assert record["error_message"] == "boom"
    assert "RuntimeError: boom" in record["stack"]
    assert record["endpoint"] == "report"


def test_text_format_renders_flat_fields():
    captured = CapturedLogs()
    configure_logging(format="text", stream=captured, level="info")
    try:
        get_logger("repro.test").warning(
            "test.event.spaced", message="two words", n=3
        )
    finally:
        reset_logging()
    line = captured.getvalue().strip()
    assert " WARNING test.event.spaced " in line
    assert 'message="two words"' in line  # whitespace values are quoted
    assert "n=3" in line


def test_non_scalar_fields_are_stringified(sink):
    get_logger("repro.test").info("test.event.mixed", path=["a", "b"])
    (record,) = sink.records()
    assert record["path"] == "['a', 'b']"


def test_json_lines_are_single_line_json(sink):
    try:
        raise ValueError("multi\nline")
    except ValueError as exc:
        get_logger("repro.test").exception("test.event.multiline", exc)
    lines = sink.getvalue().strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error_message"] == "multi\nline"


def test_configure_rejects_unknown_values():
    with pytest.raises(ValueError):
        configure_logging(format="xml")
    with pytest.raises(ValueError):
        configure_logging(level="trace")
