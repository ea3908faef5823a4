"""The paper pipeline: scenario, exhibits, report rendering.

* :mod:`repro.core.scenario` -- one deterministic synthetic world holding
  every dataset the paper consumes; all exhibits read from it.
* :mod:`repro.core.exhibit` -- the exhibit result type and registry.
* :mod:`repro.core.exhibits` -- one analysis function per paper figure
  and table (fig01..fig21, table1, table2).
* :mod:`repro.core.report` -- text rendering and the run-everything entry
  point.
* :mod:`repro.core.shared` -- the memoized intermediates several
  exhibits, findings and scorecard panels read.
"""

from repro.core.degrade import DatasetDegradedError, DegradedDataset
from repro.core.exhibit import Exhibit, exhibit_ids, get_exhibit
from repro.core.report import run_all, run_exhibit
from repro.core.scenario import Scenario

__all__ = [
    "DatasetDegradedError",
    "DegradedDataset",
    "Exhibit",
    "Scenario",
    "exhibit_ids",
    "get_exhibit",
    "run_all",
    "run_exhibit",
]
