"""Graceful degradation: the sentinel a failed dataset build leaves behind.

In lenient mode (``Scenario(strict=False)``, the CLI and server default)
a dataset build that fails does not abort the scenario: the slot is
filled with a :class:`DegradedDataset` sentinel.
Touching the dataset afterwards raises :class:`DatasetDegradedError` — a
*typed* failure dependent code can catch to render "k/n datasets
available" coverage annotations instead of a traceback (see
``repro.core.report`` and ``repro.core.scorecard``).

Strict mode (``strict=True``, the library default and the CLI's
``--strict`` flag) restores fail-fast: the original build exception
propagates out of the first access, exactly as before this subsystem
existed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class DegradedDataset:
    """What a scenario remembers about a dataset it could not build.

    Attributes:
        name: The dataset property name (``"peeringdb"``, ...).
        reason: One-line cause, e.g. the build error.
    """

    name: str
    reason: str

    def render(self) -> str:
        return f"{self.name}: {self.reason}"


class DatasetDegradedError(RuntimeError):
    """Raised when code touches a dataset that degraded during build."""

    def __init__(self, degraded: DegradedDataset):
        self.degraded = degraded
        super().__init__(
            f"dataset {degraded.name!r} is degraded: {degraded.reason}"
        )

    @property
    def name(self) -> str:
        return self.degraded.name

    @property
    def reason(self) -> str:
        return self.degraded.reason
