"""Off-net artifact records.

One record states that a hypergiant had at least one off-net server
inside an AS during a calendar year, the granularity of the published
artifacts the paper consumes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from repro.columnar import Columnar, asn_array

#: The ten hypergiants covered by Fig. 18 (first four are Fig. 7).
HYPERGIANTS: tuple[str, ...] = (
    "google",
    "akamai",
    "facebook",
    "netflix",
    "microsoft",
    "limelight",
    "cdnetworks",
    "alibaba",
    "amazon",
    "cloudflare",
)


@dataclass(frozen=True, slots=True)
class OffnetRecord:
    """One (year, hypergiant, hosting AS) observation."""

    year: int
    hypergiant: str
    asn: int

    def __post_init__(self) -> None:
        if self.hypergiant not in HYPERGIANTS:
            raise ValueError(f"unknown hypergiant: {self.hypergiant!r}")


class OffnetArchive(Columnar):
    """A queryable set of off-net records, as packed columns.

    One row per distinct record, in ``(year, hypergiant, asn)`` order;
    ``hypergiant_idx`` indexes :data:`HYPERGIANTS`.  The dataset cache
    stores the three columns as raw buffers.
    """

    kind = "offnets.presence/1"
    COLUMNS = ("year", "hypergiant_idx", "asn")

    def __init__(self, records: Iterable[OffnetRecord] = ()):
        rows = sorted({(r.year, r.hypergiant, r.asn) for r in records})
        code = {name: i for i, name in enumerate(HYPERGIANTS)}
        self.year = np.array([row[0] for row in rows], dtype=np.int16)
        self.hypergiant_idx = np.array(
            [code[row[1]] for row in rows], dtype=np.uint8
        )
        self.asn = asn_array([row[2] for row in rows])

    def meta(self) -> dict[str, Any]:
        return {}

    @classmethod
    def from_columns(
        cls, meta: dict[str, Any], columns: dict[str, np.ndarray]
    ) -> "OffnetArchive":
        archive = cls.__new__(cls)
        for name in cls.COLUMNS:
            setattr(archive, name, columns[name])
        return archive

    def __len__(self) -> int:
        return len(self.year)

    def __iter__(self) -> Iterator[OffnetRecord]:
        for year, hg, asn in zip(
            self.year.tolist(), self.hypergiant_idx.tolist(), self.asn.tolist()
        ):
            yield OffnetRecord(year, HYPERGIANTS[hg], asn)

    @cached_property
    def _groups(self) -> dict[tuple[str, int], tuple[int, int]]:
        """(hypergiant, year) -> its row range; rows group contiguously."""
        year, hg = self.year, self.hypergiant_idx
        breaks = np.flatnonzero((year[1:] != year[:-1]) | (hg[1:] != hg[:-1])) + 1
        firsts = [0] + breaks.tolist()
        lasts = breaks.tolist() + [len(year)]
        years, hgs = year.tolist(), hg.tolist()
        return {
            (HYPERGIANTS[hgs[lo]], years[lo]): (lo, hi)
            for lo, hi in zip(firsts, lasts)
            if lo < hi
        }

    def hosting_asns(self, hypergiant: str, year: int) -> set[int]:
        """ASes hosting *hypergiant* off-nets during *year*."""
        lo, hi = self._groups.get((hypergiant, year), (0, 0))
        return set(self.asn[lo:hi].tolist())

    def years(self) -> list[int]:
        """All observed years, ascending."""
        return np.unique(self.year).tolist()

    def hypergiants_seen(self) -> list[str]:
        """Hypergiants with at least one record, in canonical order."""
        return [HYPERGIANTS[i] for i in np.unique(self.hypergiant_idx).tolist()]

    # -- CSV round-trip --------------------------------------------------------

    def to_csv(self) -> str:
        """Serialise as ``year,hypergiant,asn`` rows."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["year", "hypergiant", "asn"])
        for record in self:
            writer.writerow([record.year, record.hypergiant, record.asn])
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "OffnetArchive":
        """Parse the layout produced by :meth:`to_csv`."""
        return cls(
            OffnetRecord(int(row["year"]), row["hypergiant"], int(row["asn"]))
            for row in csv.DictReader(io.StringIO(text))
        )

    def save(self, path: Path | str) -> None:
        """Write the CSV form to *path*."""
        Path(path).write_text(self.to_csv(), encoding="utf-8")

    @classmethod
    def load(cls, path: Path | str) -> "OffnetArchive":
        """Read the CSV form from *path*."""
        return cls.from_csv(Path(path).read_text(encoding="utf-8"))
