"""One warm scenario per parameter set, shared by every request.

The first :meth:`ScenarioPool.get` for a parameter set constructs and
prebuilds its :class:`~repro.core.scenario.Scenario` -- a serial
``build_all()``, backed by the optional persistent
:class:`repro.exec.cache.DatasetCache`, under the ``serve.pool.build``
timer -- and every later call returns the same object.  The build runs
under the pool's lock, so concurrent callers share one build.  A failed
build stores nothing: its caller gets the exception and the next caller
builds again.

No request pays that build: :meth:`repro.serve.aio.AioServer.start`
builds the world before it listens,
:func:`repro.serve.aio.create_aio_server` seals it before it serves,
and an ingest apply seeds its pool with the world it built.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.core.scenario import Scenario
from repro.obs import timed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.cache import DatasetCache


class ScenarioPool:
    """One warm :class:`Scenario` per parameter set, shared across threads.

    Attributes:
        cache: Optional persistent dataset cache every pooled scenario
            builds through.
        strict: Scenario strictness for pooled builds.  ``False`` (the
            serving default) lets individual datasets degrade instead of
            failing the whole build; ``True`` restores fail-fast.
    """

    def __init__(
        self,
        cache: "DatasetCache | None" = None,
        strict: bool = False,
    ) -> None:
        self.cache = cache
        self.strict = strict
        self._lock = threading.Lock()
        self._scenarios: dict[tuple, Scenario] = {}

    def seed(self, scenario: Scenario, **params: object) -> None:
        """Register an already-built scenario as warm for *params*.

        Lets an ingest apply (and tests) hand the pool a prebuilt world
        instead of paying a second build for the same parameter set.
        """
        with self._lock:
            self._scenarios[tuple(sorted(params.items()))] = scenario

    def peek(self, **params: object) -> Scenario | None:
        """The warm scenario for *params*, or None; never builds one."""
        with self._lock:
            return self._scenarios.get(tuple(sorted(params.items())))

    def get(self, **params: object) -> Scenario:
        """The warm scenario for *params*, building it on first use."""
        key = tuple(sorted(params.items()))
        with self._lock:
            scenario = self._scenarios.get(key)
            if scenario is None:
                scenario = timed("serve.pool.build", lambda: self._build(params))
                self._scenarios[key] = scenario
            return scenario

    def _build(self, params: dict[str, object]) -> Scenario:
        scenario = Scenario(
            cache=self.cache, strict=self.strict, **params  # type: ignore[arg-type]
        )
        scenario.build_all()
        return scenario
