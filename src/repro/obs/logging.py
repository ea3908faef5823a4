"""Structured logging: one event plus flat fields per record.

Every log record is an *event* plus flat key/value fields; the sink
renders it in one of two formats::

    --log-format json   {"ts": "...", "level": "error", "event":
                         "serve.request.error", "endpoint": "report", ...}
    --log-format text   2026-08-09T12:00:00Z ERROR serve.request.error
                         endpoint=report ...

Records go to ``stderr`` by default so command output (reports,
exhibits, JSON envelopes) stays byte-identical with logging enabled.
Event names follow the metric grammar (``component.noun.verb``), making
log/metric cross-referencing mechanical.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import time
import traceback
from typing import Mapping, TextIO

#: Severity order for the level gate.
_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class _LogConfig:
    """Process-wide sink configuration (swappable for tests)."""

    __slots__ = ("format", "stream", "level", "lock")

    def __init__(self) -> None:
        self.format = "text"
        self.stream: TextIO | None = None  # None -> sys.stderr at emit time
        self.level = "info"
        self.lock = threading.Lock()


_CONFIG = _LogConfig()


def configure_logging(
    format: str | None = None,
    stream: TextIO | None = None,
    level: str | None = None,
) -> None:
    """Set the process-wide log format/stream/level.

    Args:
        format: ``"json"`` or ``"text"``.
        stream: Output stream; ``None`` keeps following ``sys.stderr``
            (late-bound, so pytest's capture always sees records).
        level: Minimum severity: debug/info/warning/error.
    """
    if format is not None:
        if format not in ("json", "text"):
            raise ValueError(f"unknown log format: {format!r}")
        _CONFIG.format = format
    if stream is not None:
        _CONFIG.stream = stream
    if level is not None:
        if level not in _LEVELS:
            raise ValueError(f"unknown log level: {level!r}")
        _CONFIG.level = level


def reset_logging() -> None:
    """Restore defaults (text to stderr at info) — test isolation."""
    _CONFIG.format = "text"
    _CONFIG.stream = None
    _CONFIG.level = "info"


def _timestamp() -> str:
    """Wall-clock UTC in RFC 3339 (logs are for operators, not artifacts)."""
    now = time.time()
    base = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(now))
    millis = int((now % 1.0) * 1000)
    return f"{base}.{millis:03d}Z"


def _scalar(value: object) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class Logger:
    """A named logger; cheap to construct, safe to share across threads."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def debug(self, event: str, **fields: object) -> None:
        self._emit("debug", event, fields)

    def info(self, event: str, **fields: object) -> None:
        self._emit("info", event, fields)

    def warning(self, event: str, **fields: object) -> None:
        self._emit("warning", event, fields)

    def error(self, event: str, **fields: object) -> None:
        self._emit("error", event, fields)

    def exception(self, event: str, exc: BaseException, **fields: object) -> None:
        """An error record carrying the exception type, message, and stack."""
        stack = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ).rstrip()
        self._emit(
            "error",
            event,
            {
                **fields,
                "error_type": type(exc).__name__,
                "error_message": str(exc),
                "stack": stack,
            },
        )

    # -- emission ------------------------------------------------------------

    def _emit(self, level: str, event: str, fields: Mapping[str, object]) -> None:
        if _LEVELS[level] < _LEVELS[_CONFIG.level]:
            return
        record: dict[str, object] = {
            "ts": _timestamp(),
            "level": level,
            "logger": self.name,
            "event": event,
        }
        for key, value in fields.items():
            record[key] = _scalar(value)
        line = (
            json.dumps(record, separators=(",", ":"), sort_keys=False)
            if _CONFIG.format == "json"
            else _render_text(record)
        )
        stream = _CONFIG.stream if _CONFIG.stream is not None else sys.stderr
        with _CONFIG.lock:
            try:
                stream.write(line + "\n")
                stream.flush()
            except (ValueError, OSError):  # closed stream during shutdown
                pass


def _render_text(record: dict[str, object]) -> str:
    head = f"{record['ts']} {str(record['level']).upper()} {record['event']}"
    stack = record.get("stack")
    parts = [
        f"{key}={_text_value(value)}"
        for key, value in record.items()
        if key not in ("ts", "level", "event", "logger", "stack")
    ]
    line = head if not parts else f"{head} {' '.join(parts)}"
    if stack:
        line += "\n" + str(stack)
    return line


def _text_value(value: object) -> str:
    text = str(value)
    if any(c.isspace() for c in text) or text == "":
        return json.dumps(text)
    return text


_LOGGERS: dict[str, Logger] = {}
_LOGGERS_LOCK = threading.Lock()


def get_logger(name: str) -> Logger:
    """The shared :class:`Logger` for *name* (created on first use)."""
    with _LOGGERS_LOCK:
        logger = _LOGGERS.get(name)
        if logger is None:
            logger = _LOGGERS[name] = Logger(name)
        return logger


class CapturedLogs(io.StringIO):
    """A StringIO sink whose lines parse back to records (test helper)."""

    def records(self) -> list[dict[str, object]]:
        out: list[dict[str, object]] = []
        for line in self.getvalue().splitlines():
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                out.append({"raw": line})
        return out
