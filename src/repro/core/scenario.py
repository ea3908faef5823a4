"""The deterministic synthetic world behind every exhibit.

A :class:`Scenario` materialises each dataset lazily and caches it, so a
test session or benchmark run pays each generation cost once.  Everything
is seeded: two scenarios built with the same parameters are identical.

Materialisation is thread-safe: each dataset is guarded by its own
per-scenario lock and a double-checked materialised dict, so eight
threads racing on one property build it exactly once and all receive
the same object.  ``build_all(max_workers=N)`` exploits that by
scheduling independent datasets onto a thread pool via
:mod:`repro.exec.executor`, and an optional :class:`repro.exec.cache.DatasetCache`
short-circuits builds entirely from a persistent on-disk store.

Every dataset build is observable: it runs under a
``scenario.build.<name>`` span/timer and bumps the
``scenario.dataset.built`` counter — or, when served from the disk
cache, the ``scenario.cache.hit`` counter instead (see
:mod:`repro.obs` and ``docs/PERFORMANCE.md``), so
``python -m repro stats`` can attribute a slow scenario to the dataset
responsible.

Builds are also *resilient* (see ``docs/RELIABILITY.md``): each build
attempt runs under a bounded-backoff :class:`repro.exec.retry.RetryPolicy`
with deterministic jitter, an optional
:class:`repro.faults.plan.FaultPlan` gates built values through seeded
byte corruption (the ``repro chaos`` harness), and in lenient mode
(``strict=False``) a build that exhausts its retries leaves a
:class:`repro.core.degrade.DegradedDataset` sentinel instead of raising —
dependent exhibits then render coverage annotations via the typed
:class:`repro.core.degrade.DatasetDegradedError`.

Swapping in real data: every property returns the parsed-data type of its
substrate (archives, datasets, registries), so a pipeline over real
archives only needs a Scenario subclass whose properties load from disk
instead of the synthetic generators.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, TypeVar

from repro.apnic.model import APNICEstimates
from repro.apnic.synthetic import synthesize_populations
from repro.atlas.columns import ChaosColumns, TracerouteColumns
from repro.atlas.probes import ProbeRegistry
from repro.atlas.synthetic import (
    synthesize_chaos_columns,
    synthesize_gpdns_columns,
    synthesize_probe_registry,
)
from repro.bgp.archive import ASRelArchive, Prefix2ASArchive
from repro.bgp.synthetic import synthesize_asrel_archive, synthesize_prefix2as_archive
from repro.core.degrade import DatasetDegradedError, DegradedDataset
from repro.exec.retry import DEFAULT_RETRY, RetryPolicy, retry_call
from repro.ipv6.model import AdoptionDataset
from repro.ipv6.synthetic import synthesize_ipv6_adoption
from repro.macro.store import IndicatorStore
from repro.macro.synthetic import synthesize_macro
from repro.mlab.columns import NDTColumns
from repro.mlab.synthetic import NDTLoadModel, synthesize_ndt_columns
from repro.obs import get_registry, timed
from repro.offnets.as2org import OrgMap
from repro.offnets.records import OffnetArchive
from repro.offnets.synthetic import synthesize_offnets, synthesize_org_map
from repro.peeringdb.archive import PeeringDBArchive
from repro.peeringdb.synthetic import synthesize_peeringdb_archive
from repro.registry.delegation import DelegationFile
from repro.registry.synthetic import synthesize_ve_delegations
from repro.rootdns.deployment import RootDeployment
from repro.rootdns.synthetic import synthesize_root_deployment
from repro.telegeography.model import CableMap
from repro.telegeography.synthetic import synthesize_cable_map
from repro.webdeps.model import SiteSurvey
from repro.webdeps.synthetic import synthesize_site_survey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.cache import DatasetCache
    from repro.faults.plan import FaultPlan

T = TypeVar("T")


@dataclass
class Scenario:
    """Lazily-built bundle of every dataset the exhibits read.

    Attributes:
        ndt_tests_per_month: Sample count per country-month for the
            synthetic M-Lab load (larger = tighter medians, slower build).
        gpdns_samples_per_month: Traceroutes per probe-month in the GPDNS
            campaign.
        seed: Seed of the stochastic (M-Lab) generator; all other
            generators are fully scripted.
        cache: Optional persistent dataset cache consulted (and filled)
            by every build; ``None`` (the default) keeps builds purely
            in-process.  Excluded from equality: a cached scenario and
            an uncached one describe the same world.
        strict: ``True`` (the library default) fails fast — a dataset
            build error propagates out of the access, the historical
            behaviour.  ``False`` (the CLI/server default) degrades: a
            build that exhausts its retries stores a
            :class:`DegradedDataset` sentinel and later accesses raise
            the typed :class:`DatasetDegradedError` instead.
        retry: Backoff policy for failed build attempts; ``None`` uses
            :data:`repro.exec.retry.DEFAULT_RETRY`.
        fault_plan: Optional seeded corruption plan gating every build
            (the ``repro chaos`` harness); ``None`` injects nothing.
            Like ``cache``, the reliability knobs are excluded from
            equality — they change how the world is built, not what it
            describes.
        overlay: Optional :class:`repro.ingest.overlay.IngestOverlay`
            of journaled appends merged onto the affected datasets after
            materialisation.  Unlike the reliability knobs it *does*
            take part in equality — a scenario with appended months
            describes a different world — and the base cache entries
            stay keyed on the overlay-free parameters, so only the
            dirty partitions pay any rebuild.
    """

    ndt_tests_per_month: int = 40
    gpdns_samples_per_month: int = 2
    seed: int = 20_240_804
    overlay: object | None = field(default=None, repr=False)
    cache: "DatasetCache | None" = field(default=None, compare=False, repr=False)
    strict: bool = field(default=True, compare=False, repr=False)
    retry: RetryPolicy | None = field(default=None, compare=False, repr=False)
    fault_plan: "FaultPlan | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Plain attributes (not dataclass fields): identity-level state
        # that must never take part in equality or repr.
        self._registry_lock = threading.Lock()
        self._dataset_locks: dict[str, threading.Lock] = {}
        self._materialised: dict[str, object] = {}

    def cache_params(self) -> dict[str, int]:
        """The scenario parameters that key every cache entry."""
        return {
            "ndt_tests_per_month": self.ndt_tests_per_month,
            "gpdns_samples_per_month": self.gpdns_samples_per_month,
            "seed": self.seed,
        }

    def _lock_for(self, name: str) -> threading.Lock:
        with self._registry_lock:
            lock = self._dataset_locks.get(name)
            if lock is None:
                lock = self._dataset_locks[name] = threading.Lock()
            return lock

    def _build(self, name: str, thunk: Callable[[], T]) -> T:
        """Materialise one dataset, thread-safely, under its span/timer.

        Double-checked per-dataset locking: the first thread in builds
        (or loads from the disk cache) and records metrics once; any
        thread racing it blocks, then returns the same object.  The
        ``scenario.build.<name>`` timer covers materialisation from
        either source — counters (``scenario.dataset.built`` vs
        ``scenario.cache.hit``) say which one paid.

        Builder thunks may touch other datasets (``chaos_observations``
        reads ``probes``); those nest into different per-name locks and
        the dependency graph is acyclic, so no lock cycle can form.

        Failure handling: build attempts retry under :attr:`retry`
        (bounded backoff, deterministic jitter).  When every attempt
        fails, strict mode re-raises the final error; lenient mode
        stores a :class:`DegradedDataset` sentinel, so the failure is
        paid once and every access raises the typed
        :class:`DatasetDegradedError`.  A dependency's degradation is
        never retried — it cascades immediately.
        """
        with self._lock_for(name):
            if name not in self._materialised:
                self._materialised[name] = timed(
                    f"scenario.build.{name}", lambda: self._materialise(name, thunk)
                )
            value = self._materialised[name]
            if isinstance(value, DegradedDataset):
                raise DatasetDegradedError(value)
            return value  # type: ignore[return-value]

    def _materialise(self, name: str, thunk: Callable[[], T]) -> "T | DegradedDataset":
        """One dataset from cache or builder: the value, or its sentinel."""
        registry = get_registry()
        if self.cache is not None:
            from repro.exec.cache import CacheMiss

            params = self.cache_params()
            cached = self.cache.load(name, params)
            if not isinstance(cached, CacheMiss):
                registry.counter("scenario.cache.hit").inc()
                return self._with_overlay(name, cached)  # type: ignore[return-value]
            if cached.reason == "corrupt":
                registry.counter("scenario.cache.corrupt").inc()
            registry.counter("scenario.cache.miss").inc()

        policy = self.retry if self.retry is not None else DEFAULT_RETRY

        def build_once() -> T:
            value = thunk()
            if self.fault_plan is not None:
                value = self.fault_plan.gate(name, value)  # type: ignore[assignment]
            return value

        try:
            value = retry_call(
                build_once,
                policy=policy,
                token=name,
                seed=self.seed,
                non_retryable=(DatasetDegradedError,),
            )
        except DatasetDegradedError as err:
            if self.strict:
                raise
            registry.counter("scenario.dataset.degraded").inc()
            return DegradedDataset(
                name=name,
                reason=f"dependency {err.name!r} degraded: {err.reason}",
                attempts=1,
            )
        except Exception as exc:
            if self.strict:
                raise
            registry.counter("scenario.dataset.degraded").inc()
            return DegradedDataset(
                name=name,
                reason=f"{type(exc).__name__}: {exc}",
                attempts=policy.attempts,
            )

        if self.cache is not None:
            # store() degrades to None on write errors (ENOSPC and kin);
            # only a landed entry counts as stored.
            if self.cache.store(name, self.cache_params(), value) is not None:
                registry.counter("scenario.cache.store").inc()
        registry.counter("scenario.dataset.built").inc()
        return self._with_overlay(name, value)

    def _with_overlay(self, name: str, value: T) -> T:
        """*value* with any journaled appends for *name* merged in.

        The base value (cached or freshly built) never includes appended
        records — overlay shards are cached separately and merged here,
        on the way out, so base cache entries stay valid across appends.
        """
        if self.overlay is None:
            return value
        from repro.ingest.overlay import apply_overlay

        return apply_overlay(self, name, value)

    # -- degradation introspection -------------------------------------------

    def materialise(self, name: str) -> object:
        """Build dataset *name*; returns its value or degradation sentinel.

        Unlike property access this never raises on a degraded dataset,
        which is what bulk builders (``build_all``, the parallel
        executor) need: one bad dataset must not abort the sweep.  In
        strict mode a build failure still propagates.
        """
        try:
            return getattr(self, name)
        except DatasetDegradedError as err:
            return err.degraded

    def degraded(self) -> list[DegradedDataset]:
        """Sentinels of every dataset that degraded, in dataset order."""
        with self._registry_lock:
            snapshot = dict(self._materialised)
        return [
            value
            for _name, value in sorted(snapshot.items())
            if isinstance(value, DegradedDataset)
        ]

    def coverage(self) -> tuple[int, int]:
        """(available, total) dataset counts — the "k/n" in reports."""
        total = len(dataset_names())
        return total - len(self.degraded()), total

    # -- Section 2: macro ---------------------------------------------------

    @cached_property
    def macro(self) -> IndicatorStore:
        """IMF/OECD indicator store (Fig. 1 / Fig. 13)."""
        return self._build("macro", synthesize_macro)

    # -- Section 4: address space -------------------------------------------

    @cached_property
    def delegations(self) -> DelegationFile:
        """LACNIC delegation file for Venezuela (Fig. 2 denominator)."""
        return self._build("delegations", synthesize_ve_delegations)

    @cached_property
    def prefix2as(self) -> Prefix2ASArchive:
        """Monthly RouteViews prefix2as archive (Fig. 2 / Fig. 14)."""
        return self._build("prefix2as", synthesize_prefix2as_archive)

    # -- Section 5: infrastructure ---------------------------------------------

    @cached_property
    def peeringdb(self) -> PeeringDBArchive:
        """Monthly PeeringDB archive (Figs. 3, 10, 15, 21; Table 2)."""
        return self._build("peeringdb", synthesize_peeringdb_archive)

    @cached_property
    def cables(self) -> CableMap:
        """Submarine cable map (Fig. 4)."""
        return self._build("cables", synthesize_cable_map)

    @cached_property
    def ipv6(self) -> AdoptionDataset:
        """Meta IPv6 adoption dataset (Fig. 5)."""
        return self._build("ipv6", synthesize_ipv6_adoption)

    @cached_property
    def root_deployment(self) -> RootDeployment:
        """Root server site schedule (ground truth behind Fig. 6)."""
        return self._build("root_deployment", synthesize_root_deployment)

    @cached_property
    def probes(self) -> ProbeRegistry:
        """RIPE Atlas probe fleet (Figs. 12, 17, 20)."""
        return self._build("probes", synthesize_probe_registry)

    @cached_property
    def chaos_observations(self) -> ChaosColumns:
        """Parsed CHAOS TXT answers (Figs. 6, 16, 17), packed columns."""

        def build() -> ChaosColumns:
            observations = synthesize_chaos_columns(
                self.probes, self.root_deployment
            )
            get_registry().counter("rootdns.chaos.rows_emitted").inc(
                len(observations)
            )
            return observations

        return self._build("chaos_observations", build)

    # -- Sections 5.5 / App. G-H: content infrastructure -------------------------

    @cached_property
    def populations(self) -> APNICEstimates:
        """APNIC per-AS population estimates (Table 1 and weighting)."""
        return self._build("populations", synthesize_populations)

    @cached_property
    def offnets(self) -> OffnetArchive:
        """Hypergiant off-net archive (Figs. 7, 18)."""
        return self._build("offnets", lambda: synthesize_offnets(self.populations))

    @cached_property
    def orgmap(self) -> OrgMap:
        """as2org+ organisation map."""
        return self._build("orgmap", synthesize_org_map)

    @cached_property
    def site_survey(self) -> SiteSurvey:
        """Third-party dependency survey (Fig. 19)."""
        return self._build("site_survey", synthesize_site_survey)

    # -- Section 6: interdomain --------------------------------------------------

    @cached_property
    def asrel(self) -> ASRelArchive:
        """CAIDA AS-relationship archive (Figs. 8, 9)."""
        return self._build("asrel", synthesize_asrel_archive)

    # -- Section 7: performance ----------------------------------------------------

    @cached_property
    def ndt_tests(self) -> NDTColumns:
        """Synthetic M-Lab NDT test load (Fig. 11), packed columns."""

        def build() -> NDTColumns:
            model = NDTLoadModel(
                seed=self.seed, tests_per_month=self.ndt_tests_per_month
            )
            return synthesize_ndt_columns(model)

        return self._build("ndt_tests", build)

    @cached_property
    def gpdns_traceroutes(self) -> TracerouteColumns:
        """GPDNS traceroute campaign results (Figs. 12, 20), packed columns."""

        def build() -> TracerouteColumns:
            return synthesize_gpdns_columns(
                self.probes, samples_per_month=self.gpdns_samples_per_month
            )

        return self._build("gpdns_traceroutes", build)

    # -- whole-world construction --------------------------------------------

    def build_all(self, max_workers: int | None = None) -> list[str]:
        """Materialise every dataset; returns the names, definition order.

        Args:
            max_workers: ``None`` or ``1`` builds serially in definition
                order (the historical behaviour); ``2+`` schedules
                independent datasets onto a thread pool via
                :func:`repro.exec.executor.build_parallel`.  Either way
                the resulting datasets are identical — generators are
                deterministic and share no state.
        """
        names = dataset_names()
        if max_workers is not None and max_workers > 1:
            from repro.exec.executor import build_parallel

            build_parallel(self, max_workers=max_workers)
        else:
            for name in names:
                self.materialise(name)
        return names


def dataset_names() -> list[str]:
    """Every Scenario dataset property, in definition order."""
    return [
        name
        for name, attr in vars(Scenario).items()
        if isinstance(attr, cached_property)
    ]
