"""M-Lab NDT speed-test substrate (Measurement Lab substitute).

The paper aggregates ~447M NDT downstream-throughput tests to a
month x country panel of median download speeds (Fig. 11).  This
subpackage provides:

* :mod:`repro.mlab.ndt` -- the per-test record schema with a JSONL
  round-trip mirroring M-Lab's unified-view columns.
* :mod:`repro.mlab.aggregate` -- month x country aggregation (median by
  default, mean for the ablation comparison).
* :mod:`repro.mlab.synthetic` -- a seeded lognormal test-load generator
  whose monthly medians track the paper's calibration anchors (Venezuela
  under 1 Mbps for a decade, 2.93 Mbps by July 2023; Uruguay at 47.33,
  Brazil 32.44, Chile 25.25, Mexico 18.66, Argentina 15.48).
"""

from repro.mlab.aggregate import (
    mean_download_panel,
    median_download_by_asn,
    median_download_panel,
    median_download_series,
    measurement_count_panel,
)
from repro.mlab.ndt import NDTResult, parse_ndt_jsonl, write_ndt_jsonl
from repro.mlab.synthetic import (
    NDTLoadModel,
    median_target,
)

__all__ = [
    "NDTLoadModel",
    "NDTResult",
    "mean_download_panel",
    "median_download_panel",
    "median_download_series",
    "median_download_by_asn",
    "median_target",
    "parse_ndt_jsonl",
    "measurement_count_panel",
    "write_ndt_jsonl",
]
