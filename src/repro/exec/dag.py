"""The explicit dependency graph over ``Scenario`` datasets.

``Scenario``'s cached properties form a shallow DAG: most datasets are
independent roots, while ``chaos_observations`` reads ``probes`` and
``root_deployment``, ``offnets`` reads ``populations``, and
``gpdns_traceroutes`` reads ``probes``.  That structure was previously
implicit in the property bodies; declaring it here lets
``Scenario.inherit`` take datasets in dependency order and lets the disk
cache key a dataset on the code of everything it was derived from.

The values persisted from the datasets (the exhibits, findings and
scorecard panels) are keyed on code too: :func:`derived_fingerprint`
hashes the module that defines one plus :data:`DERIVED_MODULES`.

:func:`validate_graph` cross-checks the declaration against
``repro.core.scenario.dataset_names`` (and the test suite calls it).
"""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path

#: Dataset name -> the datasets its builder reads.  Every Scenario
#: cached property must appear here, roots with an empty tuple.
DATASET_DEPS: dict[str, tuple[str, ...]] = {
    "macro": (),
    "delegations": (),
    "prefix2as": (),
    "peeringdb": (),
    "cables": (),
    "ipv6": (),
    "root_deployment": (),
    "probes": (),
    "chaos_observations": ("probes", "root_deployment"),
    "populations": (),
    "offnets": ("populations",),
    "orgmap": (),
    "site_survey": (),
    "asrel": (),
    "ndt_tests": (),
    "gpdns_traceroutes": ("probes",),
}

#: Dataset name -> the modules a built value depends on: those whose
#: code runs while it builds, those that code imports names from (a
#: data-only constant never shows in a call trace), and those whose
#: classes make up the cached value (a pickle revives its classes by
#: module and name, and a dataclass restores its fields by position).
#: The cache fingerprints these (plus the Scenario class itself) so
#: editing any of them invalidates exactly the datasets built from it;
#: ``tests/exec/test_dag.py`` traces every cold build to keep the lists
#: whole.  A key also hashes its dependencies' lists, so a list need not
#: repeat them.
GENERATOR_MODULES: dict[str, tuple[str, ...]] = {
    "macro": (
        "repro.macro.synthetic",
        "repro.macro.store",
        "repro.timeseries.month",
        "repro.timeseries.panel",
        "repro.timeseries.series",
    ),
    "delegations": (
        "repro.registry.synthetic",
        "repro.registry.delegation",
        "repro.registry.address_plan",
    ),
    "prefix2as": (
        "repro.bgp.synthetic",
        "repro.bgp.archive",
        "repro.bgp.prefix2as",
        "repro.bgp.asrel",
        "repro.registry.address_plan",
        "repro.columnar.batch",
        "repro.timeseries.month",
        "repro.timeseries.series",
    ),
    "peeringdb": (
        "repro.peeringdb.synthetic",
        "repro.peeringdb.schema",
        "repro.peeringdb.archive",
        "repro.apnic.synthetic",
        "repro.apnic.model",
        "repro.timeseries.month",
        "repro.timeseries.panel",
        "repro.timeseries.series",
    ),
    "cables": (
        "repro.telegeography.synthetic",
        "repro.telegeography.model",
        "repro.geo.countries",
        "repro.timeseries.month",
        "repro.timeseries.panel",
        "repro.timeseries.series",
    ),
    "ipv6": (
        "repro.ipv6.synthetic",
        "repro.ipv6.model",
        "repro.timeseries.month",
        "repro.timeseries.panel",
        "repro.timeseries.series",
    ),
    "root_deployment": (
        "repro.rootdns.synthetic",
        "repro.rootdns.deployment",
        "repro.rootdns.naming",
        "repro.geo.airports",
        "repro.timeseries.month",
    ),
    "probes": (
        "repro.atlas.synthetic",
        "repro.atlas.probes",
        "repro.atlas.columns",
        "repro.atlas.dnsbuiltin",
        "repro.atlas.rttmodel",
        "repro.atlas.traceroute",
        "repro.geo.countries",
        "repro.geo.venezuela",
        "repro.rootdns.deployment",
        "repro.rootdns.naming",
        "repro.timeseries.month",
        "repro.timeseries.panel",
    ),
    "chaos_observations": (
        "repro.atlas.synthetic",
        "repro.atlas.columns",
        "repro.columnar.batch",
        "repro.rootdns.analysis",
    ),
    "populations": ("repro.apnic.synthetic", "repro.apnic.model"),
    "offnets": (
        "repro.offnets.synthetic",
        "repro.offnets.records",
        "repro.offnets.as2org",
        "repro.columnar.batch",
    ),
    "orgmap": (
        "repro.offnets.synthetic",
        "repro.offnets.as2org",
        "repro.offnets.records",
        "repro.apnic.synthetic",
        "repro.apnic.model",
    ),
    "site_survey": (
        "repro.webdeps.synthetic",
        "repro.webdeps.model",
        "repro.webdeps.scrape",
    ),
    "asrel": (
        "repro.bgp.synthetic",
        "repro.bgp.archive",
        "repro.bgp.asrel",
        "repro.bgp.prefix2as",
        "repro.registry.address_plan",
        "repro.columnar.batch",
        "repro.timeseries.month",
        "repro.timeseries.series",
    ),
    "ndt_tests": (
        "repro.mlab.synthetic",
        "repro.mlab.columns",
        "repro.mlab.ndt",
        "repro.apnic.synthetic",
        "repro.apnic.model",
        "repro.columnar.batch",
        "repro.timeseries.month",
    ),
    "gpdns_traceroutes": (
        "repro.atlas.synthetic",
        "repro.atlas.columns",
        "repro.columnar.batch",
        "repro.geo.distance",
        "repro.rootdns.analysis",
    ),
}


#: The library modules a persisted derived value runs, or imports names
#: from, besides the module that defines it (an exhibit module,
#: ``repro.core.narrative`` or ``repro.core.scorecard``).  Shared by all
#: of them: an edit here recomputes every value, an edit to a defining
#: module only the values it defines.  ``tests/exec/test_derived.py``
#: traces each computation to keep the list whole.
DERIVED_MODULES: tuple[str, ...] = (
    "repro.apnic.model",
    "repro.apnic.synthetic",
    "repro.atlas.columns",
    "repro.atlas.probes",
    "repro.atlas.traceroute",
    "repro.bgp.archive",
    "repro.bgp.asrel",
    "repro.bgp.prefix2as",
    "repro.bgp.synthetic",
    "repro.columnar.batch",
    "repro.core.exhibit",
    "repro.core.report",
    "repro.core.scenario",
    "repro.core.shared",
    "repro.geo.airports",
    "repro.geo.countries",
    "repro.geo.distance",
    "repro.geo.venezuela",
    "repro.ipv6.model",
    "repro.ixp.coverage",
    "repro.macro.store",
    "repro.mlab.aggregate",
    "repro.mlab.columns",
    "repro.mlab.ndt",
    "repro.offnets.analysis",
    "repro.offnets.as2org",
    "repro.offnets.records",
    "repro.peeringdb.archive",
    "repro.peeringdb.schema",
    "repro.peeringdb.synthetic",
    "repro.registry.address_plan",
    "repro.registry.address_space",
    "repro.registry.delegation",
    "repro.rootdns.analysis",
    "repro.rootdns.naming",
    "repro.telegeography.model",
    "repro.timeseries.month",
    "repro.timeseries.panel",
    "repro.timeseries.series",
    "repro.timeseries.stats",
    "repro.webdeps.analysis",
    "repro.webdeps.model",
)


class DependencyGraphError(ValueError):
    """The declared DAG disagrees with Scenario, or contains a cycle."""


def dependencies(name: str) -> tuple[str, ...]:
    """Direct dependencies of *name* (empty for roots)."""
    try:
        return DATASET_DEPS[name]
    except KeyError:
        raise DependencyGraphError(
            f"unknown dataset {name!r}; known: {sorted(DATASET_DEPS)}"
        ) from None


def transitive_dependencies(name: str) -> tuple[str, ...]:
    """All datasets *name* is derived from, nearest-first, deduplicated."""
    seen: dict[str, None] = {}
    frontier = list(dependencies(name))
    while frontier:
        dep = frontier.pop(0)
        if dep in seen:
            continue
        seen[dep] = None
        frontier.extend(dependencies(dep))
    return tuple(seen)


def topological_order() -> list[str]:
    """Every dataset, dependencies before dependents (Kahn's algorithm).

    Ties (independent datasets) resolve to declaration order, so the
    result is deterministic across runs and machines.
    """
    declaration = {name: i for i, name in enumerate(DATASET_DEPS)}
    remaining = {name: set(deps) for name, deps in DATASET_DEPS.items()}
    ordered: list[str] = []
    while remaining:
        ready = sorted(
            (name for name, deps in remaining.items() if not deps),
            key=declaration.__getitem__,
        )
        if not ready:
            raise DependencyGraphError(
                f"dependency cycle among {sorted(remaining)}"
            )
        for name in ready:
            ordered.append(name)
            del remaining[name]
        for deps in remaining.values():
            deps.difference_update(ready)
    return ordered


def validate_graph(dataset_names: list[str] | None = None) -> None:
    """Check the DAG covers Scenario exactly and is acyclic.

    Args:
        dataset_names: Authoritative property list; defaults to
            ``repro.core.scenario.dataset_names()``.

    Raises:
        DependencyGraphError: on missing/extra datasets, edges to
            unknown datasets, self-edges, or cycles.
    """
    if dataset_names is None:
        from repro.core.scenario import dataset_names as _names

        dataset_names = _names()
    declared, actual = set(DATASET_DEPS), set(dataset_names)
    if declared != actual:
        missing = sorted(actual - declared)
        extra = sorted(declared - actual)
        raise DependencyGraphError(
            f"DAG out of sync with Scenario: missing={missing} extra={extra}"
        )
    if set(GENERATOR_MODULES) != actual:
        missing = sorted(actual - set(GENERATOR_MODULES))
        raise DependencyGraphError(
            f"GENERATOR_MODULES out of sync with Scenario: missing={missing}"
        )
    for dataset, deps in DATASET_DEPS.items():
        for dep in deps:
            if dep == dataset:
                raise DependencyGraphError(f"{dataset!r} depends on itself")
            if dep not in declared:
                raise DependencyGraphError(
                    f"{dataset!r} depends on unknown dataset {dep!r}"
                )
    topological_order()  # raises on cycles


_FINGERPRINTS: dict[str, str] = {}


def fingerprint_modules(name: str) -> list[str]:
    """The modules :func:`code_fingerprint` hashes for *name*, sorted.

    ``repro.core.scenario`` (whose property bodies wire the generators
    together) plus the :data:`GENERATOR_MODULES` of the dataset and of
    every transitive dependency.
    """
    modules = {"repro.core.scenario"}
    for dataset in (name, *transitive_dependencies(name)):
        try:
            modules.update(GENERATOR_MODULES[dataset])
        except KeyError:
            raise DependencyGraphError(
                f"no generator modules declared for {dataset!r}"
            ) from None
    return sorted(modules)


def code_fingerprint(name: str) -> str:
    """Version hash of the code that produces dataset *name*.

    SHA-256 over the source text of every module
    :func:`fingerprint_modules` names.  Editing any of those files
    changes the fingerprint, which changes the cache key, which
    invalidates exactly the cache entries that could now be stale.
    """
    cached = _FINGERPRINTS.get(name)
    if cached is None:
        cached = _FINGERPRINTS[name] = _source_digest(fingerprint_modules(name))
    return cached


def derived_fingerprint(module: str) -> str:
    """Version hash of the code behind a derived value *module* defines.

    SHA-256 over the source of *module*, after a digest of the
    :data:`DERIVED_MODULES` sources that is computed once per process.
    """
    cached = _FINGERPRINTS.get(f"derived:{module}")
    if cached is None:
        library = _FINGERPRINTS.get("derived")
        if library is None:
            library = _FINGERPRINTS["derived"] = _source_digest(DERIVED_MODULES)
        cached = _source_digest((module,), library)
        _FINGERPRINTS[f"derived:{module}"] = cached
    return cached


def _source_digest(modules: "list[str] | tuple[str, ...]", prefix: str = "") -> str:
    """SHA-256 over *prefix*, then the name and source file of each module.

    The file is read directly: ``inspect.getsource`` gives the same
    text but keeps every file's lines in ``linecache`` for the life of
    the process.
    """
    digest = hashlib.sha256(prefix.encode())
    for module_name in modules:
        module = importlib.import_module(module_name)
        digest.update(module_name.encode())
        digest.update(Path(module.__file__).read_bytes())  # type: ignore[arg-type]
    return digest.hexdigest()
