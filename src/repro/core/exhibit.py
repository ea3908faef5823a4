"""Exhibit result type and registry.

Every paper figure/table maps to one function ``Scenario -> Exhibit``.
An Exhibit is a small row-oriented table: rows are plain dicts so the
renderer, tests and benchmark harness all consume the same shape.  Rows
carry ``paper`` columns next to ``measured`` ones wherever the paper
states a number, which is what EXPERIMENTS.md is generated from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.scenario import Scenario


@dataclass
class Exhibit:
    """One reproduced figure or table."""

    exhibit_id: str
    title: str
    rows: list[dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def columns(self) -> list[str]:
        """Union of row keys, in first-appearance order."""
        cols: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def column(self, name: str) -> list[object]:
        """All values of one column (missing cells become None)."""
        return [row.get(name) for row in self.rows]

    def render(self) -> str:
        """Aligned text table, ready for the terminal."""
        cols = self.columns()
        header = [self.exhibit_id.upper() + ": " + self.title]
        if not self.rows:
            return "\n".join(header + ["(no rows)"])

        def fmt(value: object) -> str:
            if value is None:
                return "-"
            if isinstance(value, float):
                return f"{value:.2f}"
            return str(value)

        table = [[fmt(row.get(c)) for c in cols] for row in self.rows]
        widths = [
            max(len(c), *(len(r[i]) for r in table)) for i, c in enumerate(cols)
        ]
        lines = header
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        lines.append("  ".join("-" * w for w in widths))
        lines.extend("  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in table)
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def row(metric: str, paper: object, measured: object) -> dict[str, object]:
    """One paper-vs-measured exhibit row."""
    return {"metric": metric, "paper": paper, "measured": measured}


ExhibitFn = Callable[["Scenario"], Exhibit]

_REGISTRY: dict[str, ExhibitFn] = {}


def register(exhibit_id: str) -> Callable[[ExhibitFn], ExhibitFn]:
    """Decorator registering an exhibit function under its id."""

    def wrap(fn: ExhibitFn) -> ExhibitFn:
        if exhibit_id in _REGISTRY:
            raise ValueError(f"duplicate exhibit id {exhibit_id!r}")
        _REGISTRY[exhibit_id] = fn
        return fn

    return wrap


def get_exhibit(exhibit_id: str) -> ExhibitFn:
    """The registered function for *exhibit_id*.

    Importing :mod:`repro.core.exhibits` populates the registry.
    """
    import repro.core.exhibits  # noqa: F401  (registration side effect)

    try:
        return _REGISTRY[exhibit_id]
    except KeyError:
        raise KeyError(
            f"unknown exhibit {exhibit_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def exhibit_ids() -> list[str]:
    """All registered exhibit ids, sorted."""
    import repro.core.exhibits  # noqa: F401

    return sorted(_REGISTRY)


def exhibit_title(exhibit_id: str) -> str:
    """The one-line title of an exhibit, without running it.

    Exhibit functions document themselves; the first docstring line is
    the listing title (running the function to read ``Exhibit.title``
    would cost a scenario build).
    """
    doc = (get_exhibit(exhibit_id).__doc__ or "").strip().splitlines()
    return doc[0] if doc else ""


def exhibit_catalog() -> list[dict[str, str]]:
    """Every exhibit as ``{"id", "title"}``, in id order.

    The one listing representation shared by ``repro list`` (text and
    ``--json``) and the HTTP server's ``/v1/exhibits`` endpoint.
    """
    return [
        {"id": exhibit_id, "title": exhibit_title(exhibit_id)}
        for exhibit_id in exhibit_ids()
    ]
