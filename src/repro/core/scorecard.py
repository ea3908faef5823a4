"""Regional scorecard: one country's latest standing across five signals.

The paper's methodology is country-vs-region throughout, so any LACNIC
economy can be scored on the same five panels Venezuela is measured by:
peering facilities, submarine cables, IPv6 adoption, root DNS replicas,
and download speed.  This module computes that scorecard once;
``repro scorecard`` renders it as text and ``repro serve`` returns it as
JSON, so the two surfaces can never drift apart.

Small economies are legitimately absent from some panels (no peering
facility has ever been listed in Barbados); a missing panel is reported
as an explicit ``none`` row and the scorecard carries an availability
count so callers can tell "no data" from "rank not computed".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.core import shared
from repro.core.degrade import DatasetDegradedError
from repro.core.scenario import Persist, Scenario
from repro.geo.countries import (  # noqa: F401  (UnknownCountryError: re-export)
    LACNIC_CODES,
    UnknownCountryError,
    country,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.timeseries.panel import CountryPanel


class NonLacnicCountryError(ValueError):
    """Raised for a real country outside the LACNIC service region."""


def check_country(code: str):
    """Validate a scorecard country code without building anything.

    Returns the :class:`~repro.geo.countries.Country` for *code*
    (case-insensitive).  Callers validate first so a typo is rejected
    before any scenario build is paid for.

    Raises:
        UnknownCountryError: *code* is not in the country registry.
        NonLacnicCountryError: the country is outside the LACNIC region.
    """
    home = country(code.upper())
    if not home.lacnic:
        raise NonLacnicCountryError(f"{home.name} is outside the LACNIC region")
    return home


@dataclass(frozen=True, slots=True)
class ScorecardRow:
    """One panel's latest value and regional rank (or an explicit gap).

    Attributes:
        panel: Human-readable panel name (e.g. ``"peering facilities"``).
        month: Month of the latest observation (``str``), or None.
        value: Latest observed value, or None when the panel has no data
            for the country.
        rank: Regional rank of that value in its month, or None.
        total: Number of economies the panel covers (rank denominator).
        degraded: Reason the panel's dataset was unavailable, or None.
            Distinguishes "this country has no data" (legitimate gap)
            from "the dataset behind the panel degraded" (see
            ``docs/RELIABILITY.md``).
    """

    panel: str
    month: str | None
    value: float | None
    rank: int | None
    total: int
    degraded: str | None = None

    @property
    def available(self) -> bool:
        return self.value is not None

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "panel": self.panel,
            "month": self.month,
            "value": self.value,
            "rank": self.rank,
            "total": self.total,
        }
        # Additive only: healthy scorecards keep their historical shape.
        if self.degraded is not None:
            out["degraded"] = self.degraded
        return out


@dataclass(frozen=True, slots=True)
class Scorecard:
    """A country's scorecard across every panel."""

    code: str
    name: str
    rows: list[ScorecardRow]

    @property
    def available(self) -> int:
        """How many panels actually have data for this country."""
        return sum(1 for row in self.rows if row.available)

    @property
    def degraded_panels(self) -> int:
        """How many panels were unavailable due to dataset degradation."""
        return sum(1 for row in self.rows if row.degraded is not None)

    def render(self) -> str:
        """The CLI text: header, one line per panel, coverage trailer."""
        lines = [f"{self.name} ({self.code}) — latest snapshot"]
        for row in self.rows:
            if row.degraded is not None:
                lines.append(f"  {row.panel:<24} unavailable ({row.degraded})")
                continue
            if not row.available:
                lines.append(f"  {row.panel:<24} none")
                continue
            lines.append(
                f"  {row.panel:<24} {row.value:>9.2f}   "
                f"rank {row.rank}/{row.total}"
            )
        trailer = f"  {self.available}/{len(self.rows)} panels available"
        if self.degraded_panels:
            trailer += f" ({self.degraded_panels} degraded)"
        lines.append(trailer)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        """JSON shape served by ``/v1/scorecard/<cc>``."""
        out: dict[str, object] = {
            "country": self.code,
            "name": self.name,
            "rows": [row.to_dict() for row in self.rows],
            "available": self.available,
            "panels": len(self.rows),
        }
        if self.degraded_panels:
            out["degraded"] = self.degraded_panels
        return out


def build_scorecard(scenario: Scenario, code: str) -> Scorecard:
    """Compute the scorecard for one LACNIC country.

    Each panel's rows are computed once per scenario, for every LACNIC
    country at once (:func:`_panel_rows`), and persisted in the dataset
    cache; a scorecard indexes them.

    Args:
        scenario: The world to measure against.
        code: ISO 3166-1 alpha-2 code, any case.

    Raises:
        UnknownCountryError: *code* is not in the country registry.
        NonLacnicCountryError: the country is outside the LACNIC region.
    """
    code = code.upper()
    home = check_country(code)  # raises UnknownCountryError / NonLacnicCountryError

    # Thunks, not values: each panel touches its dataset only when its
    # rows are computed, so one degraded dataset costs one panel, not all.
    panels = [
        ("peering facilities", partial(shared.facility_count_panel, scenario)),
        ("submarine cables", partial(shared.cable_count_panel, scenario, 2000, 2024)),
        ("IPv6 adoption (%)", partial(shared.ipv6_panel, scenario)),
        ("root DNS replicas", partial(shared.replica_count_panel, scenario)),
        ("download speed (Mbps)", partial(shared.median_download_panel, scenario)),
    ]
    rows = [
        scenario.derive(
            ("scorecard", name), partial(_panel_rows, name, thunk), _PERSIST
        )[code]
        for name, thunk in panels
    ]
    return Scorecard(code=code, name=home.name, rows=rows)


_PERSIST = Persist(
    __name__,
    lambda rows: {code: asdict(row) for code, row in rows.items()},
    lambda doc: {code: ScorecardRow(**row) for code, row in doc.items()},
)


def _panel_rows(
    name: str, panel_thunk: Callable[[], CountryPanel]
) -> dict[str, ScorecardRow]:
    """Every LACNIC country's latest row of one panel, keyed by code.

    The panel itself is dropped once ranked: only these rows are kept
    on the scenario.
    """
    try:
        panel = panel_thunk()
    except DatasetDegradedError as err:
        gap = ScorecardRow(
            name, None, None, None, 0, degraded=f"degraded: dataset {err.name!r}"
        )
        return dict.fromkeys(LACNIC_CODES, gap)
    rows = {}
    for code in LACNIC_CODES:
        series = panel.get(code)
        if series is None or not series:
            rows[code] = ScorecardRow(name, None, None, None, len(panel))
            continue
        month = series.last_month()
        rows[code] = ScorecardRow(
            panel=name,
            month=str(month),
            value=float(series.last_value()),
            rank=panel.rank_in_month(code, month),
            total=len(panel),
        )
    return rows
