"""Thread-safety of Scenario materialisation under concurrent access.

``functools.cached_property`` stopped locking in Python 3.12, so the
safety here comes entirely from ``Scenario._build``'s per-dataset
double-checked locking — these tests hammer it, and the same locking
behind ``Scenario.derive``.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import Scenario
from repro.exec import DatasetCache
from repro.obs import get_registry


def _hammer(scenario, name, threads=8):
    """Touch one property from *threads* threads at the same instant."""
    barrier = threading.Barrier(threads)

    def grab():
        barrier.wait()
        return getattr(scenario, name)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return [f.result() for f in [pool.submit(grab) for _ in range(threads)]]


def test_eight_threads_one_property_builds_once():
    scenario = Scenario(ndt_tests_per_month=1)
    results = _hammer(scenario, "peeringdb", threads=8)
    first = results[0]
    assert all(r is first for r in results), "all threads must share one object"
    registry = get_registry()
    assert registry.counter("scenario.dataset.built").value == 1
    assert registry.timer("scenario.build.peeringdb").count == 1


def test_race_on_derived_dataset_counts_each_dependency_once():
    scenario = Scenario(ndt_tests_per_month=1, gpdns_samples_per_month=1)
    results = _hammer(scenario, "chaos_observations", threads=8)
    assert all(r is results[0] for r in results)
    registry = get_registry()
    # chaos + probes + root_deployment: exactly three builds, ever.
    assert registry.counter("scenario.dataset.built").value == 3
    assert registry.timer("scenario.build.probes").count == 1
    assert registry.counter("rootdns.chaos.rows_emitted").value == len(results[0])


def test_race_with_cache_stores_exactly_once(tmp_path):
    cache = DatasetCache(tmp_path / "c")
    scenario = Scenario(cache=cache, ndt_tests_per_month=1)
    results = _hammer(scenario, "delegations", threads=8)
    assert all(r is results[0] for r in results)
    registry = get_registry()
    assert registry.counter("scenario.cache.miss").value == 1
    assert registry.counter("scenario.cache.store").value == 1
    assert len(list(cache.entries())) == 1


def test_racing_different_properties_never_cross_contaminate():
    scenario = Scenario(ndt_tests_per_month=1)
    names = ["macro", "delegations", "cables", "probes"] * 2
    barrier = threading.Barrier(len(names))

    def grab(name):
        barrier.wait()
        return name, getattr(scenario, name)

    with ThreadPoolExecutor(max_workers=len(names)) as pool:
        results = [f.result() for f in [pool.submit(grab, n) for n in names]]
    by_name = {}
    for name, value in results:
        by_name.setdefault(name, value)
        assert by_name[name] is value
    assert get_registry().counter("scenario.dataset.built").value == 4


def test_eight_threads_one_derive_compute_once():
    # Scenario.derive: one slow thunk, eight racing callers, one call,
    # one shared object.
    scenario = Scenario(ndt_tests_per_month=1)
    calls = []

    def slow():
        calls.append(1)
        time.sleep(0.2)
        return object()

    barrier = threading.Barrier(8)

    def grab():
        barrier.wait()
        return scenario.derive(("test", "slow"), slow)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = [f.result() for f in [pool.submit(grab) for _ in range(8)]]
    assert len(calls) == 1
    assert all(r is results[0] for r in results)


def test_derive_thunk_that_raises_stores_nothing():
    scenario = Scenario(ndt_tests_per_month=1)
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) == 1:
            raise RuntimeError("transient")
        return "value"

    with pytest.raises(RuntimeError, match="transient"):
        scenario.derive("key", flaky)
    assert scenario.derive("key", flaky) == "value"  # ran again
    assert scenario.derive("key", flaky) == "value"  # now memoized
    assert len(attempts) == 2


def test_derive_keys_live_apart_from_dataset_names():
    # A derived value keyed like a dataset, whose thunk reads that very
    # dataset, takes a lock of its own: no deadlock, no shadowing.
    scenario = Scenario(ndt_tests_per_month=1)
    results = []
    worker = threading.Thread(
        target=lambda: results.append(scenario.derive("macro", lambda: scenario.macro)),
        daemon=True,
    )
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "derive('macro') deadlocked on the dataset lock"
    assert results == [scenario.macro]
    assert scenario.derive("macro", lambda: None) is scenario.macro
    assert scenario.degraded() == []


def test_eight_racing_derives_each_record_their_own_reads():
    # Each thread's outer value reads one dataset of its own plus a
    # shared inner value that only one of them computes: every outer
    # records exactly its own dataset and the inner one's reads.
    scenario = Scenario(ndt_tests_per_month=1)
    names = ["macro", "delegations", "cables", "ipv6",
             "root_deployment", "populations", "orgmap", "site_survey"]
    barrier = threading.Barrier(len(names))
    calls = []

    def inner():
        calls.append(1)
        time.sleep(0.05)
        return scenario.probes

    def outer(name):
        barrier.wait()
        getattr(scenario, name)
        return scenario.derive("inner", inner)

    with ThreadPoolExecutor(max_workers=len(names)) as pool:
        futures = [
            pool.submit(scenario.derive, ("outer", name), lambda n=name: outer(n))
            for name in names
        ]
        results = [f.result() for f in futures]
    assert len(calls) == 1
    assert all(r is scenario.probes for r in results)
    for name in names:
        assert scenario._derived[("outer", name)][1] == {name, "probes"}
