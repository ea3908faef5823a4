"""CAIDA AS-relationship files (serial-1 text format).

The format is one relationship per line::

    # comment lines start with '#'
    <provider>|<customer>|-1        # provider-to-customer
    <peer>|<peer>|0                 # peer-to-peer

The paper retrieves these files from 1998 onward to track CANTV-AS8048's
upstream and downstream connectivity (Figs. 8 and 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.columnar import ASN_MAX
from repro.obs import get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ingest import Quarantine

#: Provider-to-customer relationship code.
P2C = -1
#: Peer-to-peer relationship code.
P2P = 0


class ASRelParseError(ValueError):
    """Raised when a serial-1 line cannot be parsed."""


@dataclass(frozen=True, slots=True)
class Relationship:
    """One AS-relationship edge.

    For ``kind == P2C``, ``a`` is the provider and ``b`` the customer.
    For ``kind == P2P``, the order of ``a`` and ``b`` is not meaningful.
    """

    a: int
    b: int
    kind: int

    def __post_init__(self) -> None:
        if self.kind not in (P2C, P2P):
            raise ValueError(f"unknown relationship kind: {self.kind}")

    def to_line(self) -> str:
        """Serialise back to the serial-1 wire form."""
        return f"{self.a}|{self.b}|{self.kind}"


@dataclass
class ASRelationshipSnapshot:
    """All relationships visible in one snapshot."""

    relationships: list[Relationship] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.relationships)

    # -- neighbour queries ------------------------------------------------

    def upstreams_of(self, asn: int) -> set[int]:
        """Providers of *asn* (ASes selling it transit)."""
        return {
            r.a for r in self.relationships if r.kind == P2C and r.b == asn
        }

    def downstreams_of(self, asn: int) -> set[int]:
        """Customers of *asn* (ASes buying transit from it)."""
        return {
            r.b for r in self.relationships if r.kind == P2C and r.a == asn
        }

    def peers_of(self, asn: int) -> set[int]:
        """Settlement-free peers of *asn*."""
        out: set[int] = set()
        for r in self.relationships:
            if r.kind != P2P:
                continue
            if r.a == asn:
                out.add(r.b)
            elif r.b == asn:
                out.add(r.a)
        return out

    def ases(self) -> set[int]:
        """Every AS appearing in the snapshot."""
        out: set[int] = set()
        for r in self.relationships:
            out.add(r.a)
            out.add(r.b)
        return out

    # -- serialisation ------------------------------------------------------

    def to_text(self) -> str:
        """Serialise as a serial-1 file with a provenance header."""
        lines = ["# synthetic AS relationships (repro)"]
        lines.extend(
            r.to_line()
            for r in sorted(self.relationships, key=lambda r: (r.a, r.b, r.kind))
        )
        return "\n".join(lines) + "\n"

    def save(self, path: Path | str) -> None:
        """Write the serial-1 form to *path*."""
        Path(path).write_text(self.to_text(), encoding="utf-8")


def parse_asrel(
    text: str,
    *,
    strict: bool = True,
    quarantine: "Quarantine | None" = None,
) -> ASRelationshipSnapshot:
    """Parse a serial-1 AS-relationship file.

    ASNs are 32-bit; a field outside ``0..2**32-1`` is a malformed line.

    Args:
        text: The serial-1 file contents.
        strict: ``True`` (default) raises on the first malformed line;
            ``False`` quarantines malformed lines under an error budget
            (see :mod:`repro.ingest`).
        quarantine: Optional caller-owned quarantine (implies lenient
            parsing); a private one is created when ``strict=False``.

    Raises:
        ASRelParseError: on malformed lines (strict mode).
        repro.ingest.ErrorBudgetExceeded: too many malformed lines
            (lenient mode).
    """
    if quarantine is None and not strict:
        from repro.ingest import Quarantine

        quarantine = Quarantine("bgp.asrel")
    relationships: list[Relationship] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = line.split("|")
            if len(fields) < 3:
                raise ASRelParseError(f"line {line_no}: expected a|b|rel: {line!r}")
            try:
                a, b, kind = int(fields[0]), int(fields[1]), int(fields[2])
            except ValueError:
                raise ASRelParseError(
                    f"line {line_no}: non-integer field: {line!r}"
                ) from None
            if kind not in (P2C, P2P):
                raise ASRelParseError(f"line {line_no}: bad relationship {kind}")
            if not (0 <= a <= ASN_MAX and 0 <= b <= ASN_MAX):
                raise ASRelParseError(f"line {line_no}: ASN out of range: {line!r}")
        except ASRelParseError as exc:
            if quarantine is None:
                raise
            quarantine.admit(line_no, raw, str(exc))
            continue
        relationships.append(Relationship(a, b, kind))
    if quarantine is not None:
        quarantine.check(len(relationships))
    get_registry().counter("bgp.asrel.rows_parsed").inc(len(relationships))
    return ASRelationshipSnapshot(relationships)


def build_snapshot(
    p2c: Iterable[tuple[int, int]] = (), p2p: Iterable[tuple[int, int]] = ()
) -> ASRelationshipSnapshot:
    """Convenience constructor from (provider, customer) and peer pairs."""
    rels = [Relationship(p, c, P2C) for p, c in p2c]
    rels.extend(Relationship(a, b, P2P) for a, b in p2p)
    return ASRelationshipSnapshot(rels)
