"""The deterministic synthetic world behind every exhibit.

A :class:`Scenario` materialises each dataset lazily and caches it, so a
test session or benchmark run pays each generation cost once.  Everything
is seeded: two scenarios built with the same parameters are identical.

Materialisation is thread-safe: each dataset is guarded by its own
per-scenario lock and a double-checked materialised dict, so eight
threads racing on one property build it exactly once and all receive
the same object.  That matters because one world is reached from
several threads (the server's live-path pool, the ingest apply thread,
:meth:`Scenario.inherit`); builds themselves run serially
(:meth:`Scenario.build_all`), and an optional
:class:`repro.exec.cache.DatasetCache` short-circuits them entirely
from a persistent on-disk store.
Values computed from the datasets (each exhibit, each scorecard panel,
the intermediates they share) go through :meth:`Scenario.derive`, the
same locking over a separate memo, so one scenario computes each of
them once.  Dataset properties never write the instance ``__dict__``,
so every read passes through them and is recorded against the
``derive`` running at the time: the memo keeps each value's dataset
reads beside it.

The values the artifacts are made from (each exhibit, finding and
scorecard panel) are also persisted in the dataset cache, keyed on the
code that computes them; each entry records the cache key of every
dataset its value read, and a load whose keys no longer match is a
miss.  A world with an ingest overlay or a fault plan neither reads nor
writes them (see ``docs/PERFORMANCE.md``).

A scenario starts with what it inherits; nothing is invalidated in
place.  :meth:`Scenario.inherit` lets a fresh world (an ingest apply's
overlay scenario) take from the world being served every dataset whose
overlay partitions did not change, and every memoized value whose
recorded reads all fall among those datasets.

Every dataset build is observable: it runs under a
``scenario.build.<name>`` span/timer and bumps the
``scenario.dataset.built`` counter — or, when served from the disk
cache, the ``scenario.cache.hit`` counter instead (see
:mod:`repro.obs` and ``docs/PERFORMANCE.md``), so
``python -m repro stats`` can attribute a slow scenario to the dataset
responsible.

Builds are also *resilient* (see ``docs/RELIABILITY.md``): an optional
:class:`repro.faults.plan.FaultPlan` gates built values through seeded
byte corruption (the ``repro chaos`` harness), and in lenient mode
(``strict=False``) a failed build leaves a
:class:`repro.core.degrade.DegradedDataset` sentinel instead of raising —
dependent exhibits then render coverage annotations via the typed
:class:`repro.core.degrade.DatasetDegradedError`.  A build runs once:
every generator is seeded, so a second attempt would fail the same way.

Swapping in real data: every property returns the parsed-data type of its
substrate (archives, datasets, registries), so a pipeline over real
archives only needs a Scenario subclass whose properties load from disk
instead of the synthetic generators.
"""

from __future__ import annotations

import json
import threading
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Hashable, TypeVar

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
from repro.ipv6.model import AdoptionDataset
from repro.ipv6.synthetic import synthesize_ipv6_adoption
from repro.macro.store import IndicatorStore
from repro.macro.synthetic import synthesize_macro
from repro.mlab.columns import NDTColumns
from repro.mlab.synthetic import NDTLoadModel, synthesize_ndt_columns
from repro.obs import get_logger, get_registry, timed
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

_LOG = get_logger("repro.core.scenario")

#: The read set of the :meth:`Scenario.derive` running in this context,
#: or None outside one.  A ContextVar, so each thread records its own.
_READS: ContextVar["set[str] | None"] = ContextVar("scenario_reads", default=None)

_MISSING = object()


def _note_reads(reads: "set[str] | frozenset[str]") -> None:
    """Add *reads* to the read set of the ``derive`` running, if any."""
    outer = _READS.get()
    if outer is not None:
        outer |= reads


@dataclass(frozen=True)
class Persist:
    """How :meth:`Scenario.derive` stores one value in the dataset cache.

    Attributes:
        module: The module that defines the computation; its source and
            :data:`repro.exec.dag.DERIVED_MODULES` key the entry.
        encode: The value as JSON data.
        decode: The value back from that data.
    """

    module: str
    encode: Callable[[Any], object]
    decode: Callable[[Any], Any]


class dataset_property(cached_property):
    """A Scenario dataset: materialised once, every read recorded.

    Unlike a plain ``cached_property`` it never writes the instance
    ``__dict__``; the value lives in the scenario's materialised map, so
    each access comes through :meth:`__get__` and adds the dataset's
    name to the read set of the :meth:`Scenario.derive` running in the
    current context.  It stays a non-data descriptor (no ``__set__``),
    so a value placed in ``scenario.__dict__`` still shadows it.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        reads = _READS.get()
        if reads is not None:
            reads.add(self.attrname)
        value = instance._materialised.get(self.attrname, _MISSING)
        if value is _MISSING or isinstance(value, DegradedDataset):
            return self.func(instance)  # builds, or raises the degradation
        return value


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
            build that fails stores a :class:`DegradedDataset` sentinel
            and later accesses raise the typed
            :class:`DatasetDegradedError` instead.
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
    fault_plan: "FaultPlan | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Plain attributes (not dataclass fields): identity-level state
        # that must never take part in equality or repr.
        self._registry_lock = threading.Lock()
        self._dataset_locks: dict[str, threading.Lock] = {}
        self._materialised: dict[str, object] = {}
        self._derive_locks: dict[Hashable, threading.Lock] = {}
        #: key -> (value, the dataset names computing it read).
        self._derived: dict[Hashable, tuple[object, frozenset[str]]] = {}

    def cache_params(self) -> dict[str, int]:
        """The scenario parameters that key every cache entry."""
        return {
            "ndt_tests_per_month": self.ndt_tests_per_month,
            "gpdns_samples_per_month": self.gpdns_samples_per_month,
            "seed": self.seed,
        }

    def _lock_for(
        self, key: Hashable, locks: dict[Hashable, threading.Lock]
    ) -> threading.Lock:
        with self._registry_lock:
            lock = locks.get(key)
            if lock is None:
                lock = locks[key] = threading.Lock()
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

        Failure handling: the thunk (then the fault gate) runs once.
        When it fails, strict mode re-raises the error; lenient mode
        stores a :class:`DegradedDataset` sentinel, so the failure is
        paid once and every access raises the typed
        :class:`DatasetDegradedError`.  A dependency's degradation
        cascades the same way.
        """
        with self._lock_for(name, self._dataset_locks):
            if name not in self._materialised:
                # What the builder reads (chaos_observations reads probes)
                # is not a read of the derive that happened to trigger it.
                token = _READS.set(None)
                try:
                    self._materialised[name] = timed(
                        f"scenario.build.{name}",
                        lambda: self._materialise(name, thunk),
                    )
                finally:
                    _READS.reset(token)
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

        try:
            value = thunk()
            if self.fault_plan is not None:
                value = self.fault_plan.gate(name, value)  # type: ignore[assignment]
        except DatasetDegradedError as err:
            if self.strict:
                raise
            return _degrade(name, f"dependency {err.name!r} degraded: {err.reason}")
        except Exception as exc:
            if self.strict:
                raise
            return _degrade(name, f"{type(exc).__name__}: {exc}")

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

    # -- derived values ------------------------------------------------------

    def derive(
        self, key: Hashable, thunk: Callable[[], T], persist: Persist | None = None
    ) -> T:
        """The value *thunk* computes from this scenario, computed once.

        The analysis-level twin of :meth:`_build`, with the same
        double-checked per-key locking: the first caller for *key* runs
        *thunk*, and every later or racing caller gets the same object.
        Keys live in their own namespace, apart from dataset names.  A
        thunk that raises stores nothing, so the next call runs it
        again.  No cache, fault plan or overlay is involved: the
        thunk reads datasets through the properties, which already
        apply them.

        The memo stores the names of the datasets the thunk read beside
        its value, including the reads of every ``derive`` nested in it
        (a memo hit inside a running thunk adds the inner key's reads to
        the outer one).  The memo lives as long as the scenario.  A
        scenario starts with what it inherits (:meth:`inherit`);
        nothing is invalidated in place.

        With *persist*, a scenario that has a cache and neither an
        overlay nor a fault plan first looks the value up there
        (:meth:`_load_derived`) and stores what it computes
        (:meth:`_store_derived`); a value loaded that way is memoized
        with the read set it was stored with.
        """
        entry = self._derived.get(key)
        if entry is None:
            with self._lock_for(key, self._derive_locks):
                entry = self._derived.get(key)
                slot = None if entry is not None else self._derived_slot(key, persist)
                if slot is not None:
                    entry = self._load_derived(slot, persist)  # type: ignore[arg-type]
                    if entry is not None:
                        self._derived[key] = entry
                if entry is None:
                    reads: set[str] = set()
                    token = _READS.set(reads)
                    try:
                        value = thunk()
                    finally:
                        # A thunk that raised (a degraded dataset) still
                        # read what it read: the caller may memoize a
                        # placeholder that must not outlive those reads.
                        _READS.reset(token)
                        _note_reads(reads)
                    self._derived[key] = (value, frozenset(reads))
                    if slot is not None:
                        self._store_derived(slot, persist, value, reads)  # type: ignore[arg-type]
                    return value
        _note_reads(entry[1])
        return entry[0]  # type: ignore[return-value]

    def _derived_slot(
        self, key: Hashable, persist: Persist | None
    ) -> "tuple[DatasetCache, str, str] | None":
        """(cache, entry name, entry key) for *key*, or None if not persisted.

        Only a world with a cache and neither an overlay nor a fault
        plan persists: the entry key covers no overlay, and ``repro
        chaos`` must still compute what it reports.
        """
        if (
            persist is None
            or self.cache is None
            or self.overlay is not None
            or self.fault_plan is not None
        ):
            return None
        name = "/".join(map(str, key))  # type: ignore[call-overload]
        return self.cache, name, self.cache.derived_key(
            name, self.cache_params(), persist.module
        )

    def _any_degraded(self, names) -> bool:
        """Whether a dataset in *names* is degraded in this world."""
        return any(
            isinstance(self._materialised.get(name), DegradedDataset) for name in names
        )

    def _dataset_keys(self, cache: "DatasetCache", names) -> dict[str, str]:
        """The cache key of each dataset in *names*, under this world's params."""
        params = self.cache_params()
        return {name: cache.key(name, params) for name in sorted(names)}

    def _load_derived(
        self, slot: "tuple[DatasetCache, str, str]", persist: Persist
    ) -> "tuple[object, frozenset[str]] | None":
        """The stored (value, reads) in *slot*, or None on a miss.

        A miss is an absent or corrupt entry (the cache quarantines the
        latter), one whose recorded dataset keys differ from today's, or
        one that read a dataset degraded in this world (so the report's
        coverage section and its exhibits agree).
        """
        from repro.exec.cache import CacheMiss

        cache, name, entry_key = slot
        document = cache.load_derived(name, entry_key)
        if (
            isinstance(document, CacheMiss)
            or not set(document["reads"]) <= set(dataset_names())
            or self._dataset_keys(cache, document["reads"]) != document["reads"]
            or self._any_degraded(document["reads"])
        ):
            get_registry().counter("scenario.derived.miss").inc()
            return None
        get_registry().counter("scenario.derived.hit").inc()
        return persist.decode(document["value"]), frozenset(document["reads"])

    def _store_derived(
        self,
        slot: "tuple[DatasetCache, str, str]",
        persist: Persist,
        value: object,
        reads: set[str],
    ) -> None:
        """Store *value* in *slot* unless a dataset it read is degraded here.

        A value whose JSON form does not decode back to an equal value
        is not stored either: a load must give the same bytes.
        """
        if self._any_degraded(reads):
            return
        encoded = persist.encode(value)
        try:
            if persist.decode(json.loads(json.dumps(encoded))) != value:
                return
        except (TypeError, ValueError):
            return
        cache, name, entry_key = slot
        document = {"value": encoded, "reads": self._dataset_keys(cache, reads)}
        if cache.store_derived(name, entry_key, document) is not None:
            get_registry().counter("scenario.derived.store").inc()

    def inherit(self, previous: "Scenario") -> None:
        """Take over what this world shares with *previous*.

        Call on a fresh scenario, before anything is built; nothing
        happens unless both have equal :meth:`cache_params`.  Datasets
        go in :func:`repro.exec.dag.topological_order`: one is taken
        when *previous* holds it undegraded (a degraded one is retried,
        not carried over), its overlay partitions are the same in both
        worlds and every dataset it is built from was taken.  Then every
        memoized value whose recorded reads were all taken is taken too.

        *previous* may still be serving and filling its memo: both maps
        are read from snapshots, and each memo entry carries its value
        and its reads together.  Counted in ``scenario.dataset.inherited``
        and ``scenario.derived.inherited``.
        """
        if previous.cache_params() != self.cache_params():
            return
        from repro.exec.dag import DATASET_DEPS, topological_order

        materialised = dict(previous._materialised)
        taken: set[str] = set()
        for name in topological_order():
            value = materialised.get(name, _MISSING)
            if (
                value is _MISSING
                or isinstance(value, DegradedDataset)
                or not taken.issuperset(DATASET_DEPS[name])
                or _partitions(self.overlay, name)
                != _partitions(previous.overlay, name)
            ):
                continue
            self._materialised[name] = value
            taken.add(name)
        derived = {
            key: entry
            for key, entry in dict(previous._derived).items()
            if entry[1] <= taken
        }
        self._derived.update(derived)
        registry = get_registry()
        registry.counter("scenario.dataset.inherited").inc(len(taken))
        registry.counter("scenario.derived.inherited").inc(len(derived))

    # -- degradation introspection -------------------------------------------

    def materialise(self, name: str) -> object:
        """Build dataset *name*; returns its value or degradation sentinel.

        Unlike property access this never raises on a degraded dataset,
        which is what :meth:`build_all` needs: one bad dataset must not
        abort the sweep.  In strict mode a build failure still
        propagates.
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

    @dataset_property
    def macro(self) -> IndicatorStore:
        """IMF/OECD indicator store (Fig. 1 / Fig. 13)."""
        return self._build("macro", synthesize_macro)

    # -- Section 4: address space -------------------------------------------

    @dataset_property
    def delegations(self) -> DelegationFile:
        """LACNIC delegation file for Venezuela (Fig. 2 denominator)."""
        return self._build("delegations", synthesize_ve_delegations)

    @dataset_property
    def prefix2as(self) -> Prefix2ASArchive:
        """Monthly RouteViews prefix2as archive (Fig. 2 / Fig. 14)."""
        return self._build("prefix2as", synthesize_prefix2as_archive)

    # -- Section 5: infrastructure ---------------------------------------------

    @dataset_property
    def peeringdb(self) -> PeeringDBArchive:
        """Monthly PeeringDB archive (Figs. 3, 10, 15, 21; Table 2)."""
        return self._build("peeringdb", synthesize_peeringdb_archive)

    @dataset_property
    def cables(self) -> CableMap:
        """Submarine cable map (Fig. 4)."""
        return self._build("cables", synthesize_cable_map)

    @dataset_property
    def ipv6(self) -> AdoptionDataset:
        """Meta IPv6 adoption dataset (Fig. 5)."""
        return self._build("ipv6", synthesize_ipv6_adoption)

    @dataset_property
    def root_deployment(self) -> RootDeployment:
        """Root server site schedule (ground truth behind Fig. 6)."""
        return self._build("root_deployment", synthesize_root_deployment)

    @dataset_property
    def probes(self) -> ProbeRegistry:
        """RIPE Atlas probe fleet (Figs. 12, 17, 20)."""
        return self._build("probes", synthesize_probe_registry)

    @dataset_property
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

    @dataset_property
    def populations(self) -> APNICEstimates:
        """APNIC per-AS population estimates (Table 1 and weighting)."""
        return self._build("populations", synthesize_populations)

    @dataset_property
    def offnets(self) -> OffnetArchive:
        """Hypergiant off-net archive (Figs. 7, 18)."""
        return self._build("offnets", lambda: synthesize_offnets(self.populations))

    @dataset_property
    def orgmap(self) -> OrgMap:
        """as2org+ organisation map."""
        return self._build("orgmap", synthesize_org_map)

    @dataset_property
    def site_survey(self) -> SiteSurvey:
        """Third-party dependency survey (Fig. 19)."""
        return self._build("site_survey", synthesize_site_survey)

    # -- Section 6: interdomain --------------------------------------------------

    @dataset_property
    def asrel(self) -> ASRelArchive:
        """CAIDA AS-relationship archive (Figs. 8, 9)."""
        return self._build("asrel", synthesize_asrel_archive)

    # -- Section 7: performance ----------------------------------------------------

    @dataset_property
    def ndt_tests(self) -> NDTColumns:
        """Synthetic M-Lab NDT test load (Fig. 11), packed columns."""

        def build() -> NDTColumns:
            model = NDTLoadModel(
                seed=self.seed, tests_per_month=self.ndt_tests_per_month
            )
            return synthesize_ndt_columns(model)

        return self._build("ndt_tests", build)

    @dataset_property
    def gpdns_traceroutes(self) -> TracerouteColumns:
        """GPDNS traceroute campaign results (Figs. 12, 20), packed columns."""

        def build() -> TracerouteColumns:
            return synthesize_gpdns_columns(
                self.probes, samples_per_month=self.gpdns_samples_per_month
            )

        return self._build("gpdns_traceroutes", build)

    # -- whole-world construction --------------------------------------------

    def build_all(self) -> list[str]:
        """Materialise every dataset, serially; returns the names, definition order."""
        names = dataset_names()
        for name in names:
            self.materialise(name)
        return names


def _degrade(name: str, reason: str) -> DegradedDataset:
    """The sentinel of a lenient build that failed, counted and logged."""
    get_registry().counter("scenario.dataset.degraded").inc()
    _LOG.warning("scenario.dataset.degraded", dataset=name, reason=reason)
    return DegradedDataset(name=name, reason=reason)


def _partitions(overlay: object | None, name: str) -> list:
    """The overlay partitions of dataset *name* (none without an overlay)."""
    if overlay is None:
        return []
    return overlay.partitions(name)  # type: ignore[attr-defined]


def dataset_names() -> list[str]:
    """Every Scenario dataset property, in definition order."""
    return [
        name
        for name, attr in vars(Scenario).items()
        if isinstance(attr, cached_property)
    ]
