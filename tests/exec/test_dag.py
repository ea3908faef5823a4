"""Tests for the dataset dependency graph."""

import ast
import importlib
import inspect
import io
import pickle
import sys

import pytest

from repro.columnar import Columnar
from repro.core.scenario import Scenario, dataset_names
from repro.exec import dag
from repro.exec.dag import (
    DATASET_DEPS,
    DependencyGraphError,
    code_fingerprint,
    dependencies,
    fingerprint_modules,
    topological_order,
    transitive_dependencies,
    validate_graph,
)


def test_graph_is_valid_against_scenario():
    validate_graph()  # must not raise


def test_graph_covers_every_dataset_exactly():
    assert set(DATASET_DEPS) == set(dataset_names())


def test_declared_edges_match_property_bodies():
    # The three derived datasets, exactly as Scenario's thunks read them.
    assert dependencies("chaos_observations") == ("probes", "root_deployment")
    assert dependencies("offnets") == ("populations",)
    assert dependencies("gpdns_traceroutes") == ("probes",)
    roots = [n for n in DATASET_DEPS if not dependencies(n)]
    assert len(roots) == 13


def test_unknown_dataset_raises():
    with pytest.raises(DependencyGraphError):
        dependencies("nope")


def test_topological_order_is_complete_and_sorted():
    order = topological_order()
    assert sorted(order) == sorted(DATASET_DEPS)
    position = {name: i for i, name in enumerate(order)}
    for dataset, deps in DATASET_DEPS.items():
        for dep in deps:
            assert position[dep] < position[dataset], (dep, dataset)


def test_topological_order_is_deterministic():
    assert topological_order() == topological_order()


def test_transitive_dependencies():
    assert transitive_dependencies("macro") == ()
    assert set(transitive_dependencies("chaos_observations")) == {
        "probes",
        "root_deployment",
    }


def test_cycle_detection(monkeypatch):
    monkeypatch.setitem(DATASET_DEPS, "probes", ("chaos_observations",))
    with pytest.raises(DependencyGraphError, match="cycle"):
        topological_order()


def test_validate_rejects_out_of_sync_graph():
    with pytest.raises(DependencyGraphError, match="out of sync"):
        validate_graph(dataset_names=["macro", "unheard_of"])


def test_code_fingerprint_is_stable_and_dataset_specific():
    assert code_fingerprint("macro") == code_fingerprint("macro")
    # chaos folds in its deps' generator modules; macro's differs.
    assert code_fingerprint("macro") != code_fingerprint("chaos_observations")
    assert len(code_fingerprint("ndt_tests")) == 64


def test_code_fingerprint_folds_in_dependency_code(monkeypatch):
    # chaos_observations must incorporate the probes generator module, so
    # an (hypothetical) extra module on probes changes chaos' fingerprint.
    baseline = code_fingerprint("chaos_observations")
    monkeypatch.setattr(dag, "_FINGERPRINTS", {})
    monkeypatch.setitem(
        dag.GENERATOR_MODULES, "probes", ("repro.atlas.synthetic", "repro.geo.airports")
    )
    assert code_fingerprint("chaos_observations") != baseline


class _NamingUnpickler(pickle.Unpickler):
    """Records the module of every class a pickle stream names."""

    def __init__(self, data: bytes):
        super().__init__(io.BytesIO(data))
        self.modules: set[str] = set()

    def find_class(self, module, name):
        self.modules.add(module)
        return super().find_class(module, name)


@pytest.mark.parametrize("name", dataset_names())
def test_fingerprint_covers_the_modules_a_cached_value_is_made_of(scenario, name):
    # A pickle revives classes by (module, name) and dataclass fields by
    # position, so a module it names but the key does not hash could
    # change under a warm cache and revive swapped values.
    value = getattr(scenario, name)
    if isinstance(value, Columnar):
        named = {type(value).__module__}
    else:
        unpickler = _NamingUnpickler(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        )
        unpickler.load()
        named = {m for m in unpickler.modules if m.split(".")[0] == "repro"}
    assert named <= set(fingerprint_modules(name))


#: Instrumentation and build plumbing: they run in every build but make
#: none of its value, so no key hashes them.
_PLUMBING = (
    "repro.obs", "repro.exec.cache", "repro.faults.plan", "repro.core.degrade",
)


def _plumbing(module: str) -> bool:
    return module in _PLUMBING or module.startswith("repro.obs.")


def _traced_build(name: str) -> set[str]:
    """The ``repro.*`` modules whose code runs while *name* builds cold.

    Its dependencies are built first, outside the trace, in the same
    fresh uncached scenario.
    """
    scenario = Scenario()
    for dep in transitive_dependencies(name):
        scenario.materialise(dep)
    ran: set[str] = set()

    def profile(frame, event, _arg):
        if event == "call":
            ran.add(frame.f_globals.get("__name__", ""))

    sys.setprofile(profile)
    try:
        scenario.materialise(name)
    finally:
        sys.setprofile(None)
    return {module for module in ran if module.split(".")[0] == "repro"}


def _from_imports(module: str) -> list[tuple[str, str, str]]:
    """``(source, name, bound name)`` of *module*'s module-level repro imports.

    Only direct statements of the module body count: imports under
    ``if TYPE_CHECKING:`` and inside functions are skipped.
    """
    tree = ast.parse(inspect.getsource(importlib.import_module(module)))
    return [
        (node.module, alias.name, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "repro"
        for alias in node.names
    ]


def _defining_module(source: str, name: str) -> str:
    """The module that defines *name* imported from *source*.

    A package re-export resolves through the package's own imports; a
    submodule imported by name is that submodule.
    """
    module = importlib.import_module(source)
    value = getattr(module, name)
    if inspect.ismodule(value):
        return value.__name__
    if hasattr(module, "__path__"):
        for origin, original, bound in _from_imports(source):
            if bound == name:
                return _defining_module(origin, original)
    return source


@pytest.mark.parametrize("name", dataset_names())
def test_fingerprint_covers_the_modules_a_build_runs(name):
    # An edit to any module whose code runs in a cold build, or whose
    # names (a call trace cannot see a data-only constant) such a module
    # imports, must change the key.  repro.core.scenario is hashed whole
    # and imports every generator, so its own imports are not expanded.
    ran = {module for module in _traced_build(name) if not _plumbing(module)}
    imported = {
        _defining_module(source, original)
        for module in ran - {"repro.core.scenario"}
        for source, original, _bound in _from_imports(module)
    }
    needed = ran | {module for module in imported if not _plumbing(module)}
    assert needed - set(fingerprint_modules(name)) == set()
