"""RouteViews prefix-to-AS mappings.

The wire format is tab-separated: ``<network address>\\t<prefix length>\\t
<origin>`` where origin is an ASN, an underscore-joined multi-origin set
(``8048_6306``), or a comma-joined AS-set.  The paper uses monthly
snapshots of these files to measure announced address space per origin AS
(Fig. 2) and the visibility of individual prefixes (Fig. 14 / Appendix C).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.columnar import ASN_MAX
from repro.obs import get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ingest import Quarantine


class Prefix2ASParseError(ValueError):
    """Raised when a prefix2as line cannot be parsed."""


@dataclass(frozen=True, slots=True)
class OriginEntry:
    """One routed prefix and its origin ASes."""

    network: ipaddress.IPv4Network
    origins: tuple[int, ...]

    def to_line(self) -> str:
        """Serialise to the RouteViews tab-separated wire form."""
        origin = "_".join(str(a) for a in self.origins)
        return f"{self.network.network_address}\t{self.network.prefixlen}\t{origin}"


@dataclass
class Prefix2ASSnapshot:
    """All routed prefixes in one snapshot."""

    entries: list[OriginEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, int]]) -> "Prefix2ASSnapshot":
        """Build from (cidr string, origin asn) pairs."""
        return cls(
            [
                OriginEntry(ipaddress.ip_network(cidr), (asn,))
                for cidr, asn in pairs
            ]
        )

    # -- queries -----------------------------------------------------------

    def prefixes_of(self, asn: int) -> list[ipaddress.IPv4Network]:
        """All prefixes originated (possibly jointly) by *asn*."""
        return [e.network for e in self.entries if asn in e.origins]

    def origins_of(self, cidr: str) -> tuple[int, ...]:
        """Origins of an exact prefix, or () when it is not routed."""
        network = ipaddress.ip_network(cidr)
        for entry in self.entries:
            if entry.network == network:
                return entry.origins
        return ()

    def longest_match(self, address: str) -> OriginEntry | None:
        """Longest-prefix-match lookup for one IPv4 address."""
        ip = ipaddress.ip_address(address)
        best: OriginEntry | None = None
        for entry in self.entries:
            if ip in entry.network:
                if best is None or entry.network.prefixlen > best.network.prefixlen:
                    best = entry
        return best

    def announced_addresses(self, asn: int) -> int:
        """Distinct addresses announced by *asn*, overlaps collapsed.

        A network often announces both a covering aggregate and more
        specific subnets; counting naively would double-count, so prefixes
        are collapsed before summing.
        """
        collapsed = ipaddress.collapse_addresses(self.prefixes_of(asn))
        return sum(net.num_addresses for net in collapsed)

    def routed_prefixes(self) -> set[ipaddress.IPv4Network]:
        """The set of all routed prefixes in the snapshot."""
        return {e.network for e in self.entries}

    # -- serialisation ------------------------------------------------------

    def to_text(self) -> str:
        """Serialise in RouteViews order (by network, then length)."""
        ordered = sorted(
            self.entries, key=lambda e: (int(e.network.network_address), e.network.prefixlen)
        )
        return "\n".join(e.to_line() for e in ordered) + "\n"

    def save(self, path: Path | str) -> None:
        """Write the wire form to *path*."""
        Path(path).write_text(self.to_text(), encoding="utf-8")


def parse_prefix2as(
    text: str,
    *,
    strict: bool = True,
    quarantine: "Quarantine | None" = None,
) -> Prefix2ASSnapshot:
    """Parse the RouteViews tab-separated prefix2as format.

    Accepts underscore-joined multi-origin sets and comma-joined AS-sets;
    both are normalised into the entry's ``origins`` tuple.  Prefixes are
    IPv4 and origins 32-bit ASNs; anything else is a malformed line.

    Args:
        text: The prefix2as file contents.
        strict: ``True`` (default) raises on the first malformed line;
            ``False`` quarantines malformed lines under an error budget.
        quarantine: Optional caller-owned quarantine (implies lenient
            parsing); a private one is created when ``strict=False``.

    Raises:
        Prefix2ASParseError: on malformed lines (strict mode).
        repro.ingest.ErrorBudgetExceeded: too many malformed lines
            (lenient mode).
    """
    if quarantine is None and not strict:
        from repro.ingest import Quarantine

        quarantine = Quarantine("bgp.prefix2as")
    entries: list[OriginEntry] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = line.split("\t")
            if len(fields) != 3:
                raise Prefix2ASParseError(
                    f"line {line_no}: expected 3 fields: {line!r}"
                )
            address, length, origin = fields
            try:
                network = ipaddress.IPv4Network(f"{address}/{int(length)}")
            except ValueError as exc:
                raise Prefix2ASParseError(f"line {line_no}: {exc}") from None
            try:
                origins = tuple(
                    int(part)
                    for chunk in origin.split("_")
                    for part in chunk.split(",")
                )
                if not all(0 <= asn <= ASN_MAX for asn in origins):
                    raise ValueError(origin)
            except ValueError:
                raise Prefix2ASParseError(
                    f"line {line_no}: bad origin {origin!r}"
                ) from None
        except Prefix2ASParseError as exc:
            if quarantine is None:
                raise
            quarantine.admit(line_no, raw, str(exc))
            continue
        entries.append(OriginEntry(network, origins))
    if quarantine is not None:
        quarantine.check(len(entries))
    get_registry().counter("bgp.prefix2as.rows_parsed").inc(len(entries))
    return Prefix2ASSnapshot(entries)
