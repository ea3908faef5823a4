"""ScenarioPool: one build per parameter set, seeding, and failure retry."""

import threading

import pytest

from repro.obs import get_registry
from repro.serve.pool import ScenarioPool

#: Small world: keeps the pool's one real build in this module cheap.
SMALL = {"ndt_tests_per_month": 1, "gpdns_samples_per_month": 1}


def test_eight_concurrent_cold_gets_build_exactly_once():
    # One build per parameter set: the barrier releases all eight
    # threads together while the build takes >1s, and all eight get the
    # one scenario the pool built.
    pool = ScenarioPool()
    barrier = threading.Barrier(8)
    scenarios = []
    lock = threading.Lock()

    def worker():
        barrier.wait()
        scenario = pool.get(**SMALL)
        with lock:
            scenarios.append(scenario)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(scenarios) == 8
    assert len({id(s) for s in scenarios}) == 1  # one shared object
    registry = get_registry()
    # Exactly one build burst: every dataset generated exactly once.
    assert registry.counter("scenario.dataset.built").value == 16
    assert registry.timer("serve.pool.build").count == 1


def test_warm_get_returns_same_object_without_rebuilding(scenario):
    pool = ScenarioPool()
    pool.seed(scenario)
    registry = get_registry()
    assert pool.get() is scenario
    assert pool.get() is scenario
    assert registry.counter("scenario.dataset.built").value == 0


def test_distinct_param_sets_get_distinct_slots(scenario):
    pool = ScenarioPool()
    pool.seed(scenario)
    pool.seed(scenario, ndt_tests_per_month=7)
    assert pool.get(ndt_tests_per_month=7) is scenario
    assert pool.get() is scenario
    assert get_registry().timer("serve.pool.build").count == 0


def test_failed_build_is_retried_by_the_next_caller(monkeypatch):
    pool = ScenarioPool()
    calls = {"n": 0}

    def flaky(params):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("boom")
        return "rebuilt"

    monkeypatch.setattr(pool, "_build", flaky)
    with pytest.raises(RuntimeError, match="boom"):
        pool.get(**SMALL)
    assert pool.get(**SMALL) == "rebuilt"  # the failure stored nothing
    assert calls["n"] == 2
