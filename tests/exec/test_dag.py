"""Tests for the dataset dependency graph."""

import io
import pickle

import pytest

from repro.columnar import Columnar
from repro.core.scenario import dataset_names
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
