#!/usr/bin/env python3
"""Write every dataset in its authentic wire format and parse it back.

The pipeline's substrates read the same raw formats the paper's sources
publish (RIR extended stats, CAIDA serial-1, RouteViews prefix2as,
PeeringDB JSON dumps, Atlas result JSON, NDT rows...).  This example
exports one snapshot of each to a directory and re-parses them, proving
that a real archive download can be swapped in for the generators.

Usage::

    python examples/raw_formats_roundtrip.py [output_dir]
"""

import sys
from pathlib import Path

from repro.atlas.synthetic import synthesize_gpdns_columns
from repro.core import Scenario
from repro.bgp.asrel import parse_asrel
from repro.bgp.prefix2as import parse_prefix2as
from repro.mlab.ndt import parse_ndt_jsonl, write_ndt_jsonl
from repro.peeringdb.schema import PeeringDBSnapshot
from repro.registry.delegation import parse_delegation_file
from repro.telegeography.model import CableMap
from repro.timeseries.month import Month


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("raw_export")
    out.mkdir(parents=True, exist_ok=True)
    scenario = Scenario(ndt_tests_per_month=5)
    month = Month(2023, 12)

    # RIR extended delegation statistics.
    deleg_path = out / "delegated-lacnic-extended-latest"
    scenario.delegations.save(deleg_path)
    parsed = parse_delegation_file(deleg_path.read_text())
    print(f"{deleg_path.name}: {len(parsed.records)} records")

    # CAIDA AS-relationship serial-1.
    asrel_path = out / f"{month}.as-rel.txt"
    scenario.asrel[month].save(asrel_path)
    print(f"{asrel_path.name}: {len(parse_asrel(asrel_path.read_text()))} edges")

    # RouteViews prefix2as.
    p2as_path = out / f"routeviews-rv2-{month}.pfx2as"
    scenario.prefix2as[month].save(p2as_path)
    print(f"{p2as_path.name}: {len(parse_prefix2as(p2as_path.read_text()))} prefixes")

    # PeeringDB JSON dump.
    pdb_path = out / "peeringdb_dump.json"
    scenario.peeringdb.latest().save(pdb_path)
    snapshot = PeeringDBSnapshot.load(pdb_path)
    print(f"{pdb_path.name}: {len(snapshot.facilities)} facilities, "
          f"{len(snapshot.netixlans)} exchange ports")

    # Telegeography-style cable map.
    cables_path = out / "submarine_cables.json"
    scenario.cables.save(cables_path)
    print(f"{cables_path.name}: {len(CableMap.load(cables_path))} cables")

    # Atlas traceroute results (one monthly window, Venezuela).
    atlas_path = out / "atlas-msm-1591146.jsonl"
    results = list(
        synthesize_gpdns_columns(
            scenario.probes, start=month, end=month, countries=["VE"]
        )
    )
    atlas_path.write_text("\n".join(r.to_json() for r in results) + "\n")
    print(f"{atlas_path.name}: {len(results)} traceroutes")

    # M-Lab NDT rows.
    ndt_path = out / "ndt_downloads.jsonl"
    count = write_ndt_jsonl(scenario.ndt_tests[:2000], ndt_path)
    reparsed = sum(1 for _ in parse_ndt_jsonl(ndt_path))
    print(f"{ndt_path.name}: wrote {count}, re-parsed {reparsed}")

    # CSV exports (macro, populations, off-nets, IPv6, web survey).
    scenario.macro.save(out / "imf_indicators.csv")
    scenario.populations.save(out / "apnic_populations.csv")
    scenario.offnets.save(out / "offnets_artifacts.csv")
    scenario.ipv6.save(out / "ipv6_adoption.csv")
    scenario.site_survey.save(out / "webdeps_survey.csv")
    print("csv exports: imf_indicators, apnic_populations, offnets_artifacts,")
    print("             ipv6_adoption, webdeps_survey")
    print(f"all formats round-tripped under {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
