"""Parallel builds: determinism vs serial, scheduling, obs wiring.

The heavy generators make a full 16-dataset build slow, so these tests
run small scenarios (``ndt_tests_per_month=1``) and lean on the cheap
datasets; the full-size serial-vs-parallel byte comparison lives in CI
(cold/warm ``repro report`` runs), where it is already enforced on every
push.
"""

import pickle

import pytest

from repro.core import Scenario
from repro.core.report import render_report
from repro.core.scenario import dataset_names
from repro.exec import DatasetCache, build_parallel
from repro.obs import (
    enable_tracing,
    get_registry,
    get_tracer,
    start_request_context,
    use_context,
)

SMALL = dict(ndt_tests_per_month=1, gpdns_samples_per_month=1)


def test_build_all_parallel_builds_every_dataset():
    scenario = Scenario(**SMALL)
    names = scenario.build_all(max_workers=4)
    assert names == dataset_names()
    assert get_registry().counter("scenario.dataset.built").value == 16
    assert set(scenario._materialised) == set(dataset_names())


def test_build_parallel_returns_dependency_respecting_completion_order():
    scenario = Scenario(**SMALL)
    completed = build_parallel(scenario, max_workers=4)
    assert sorted(completed) == sorted(dataset_names())
    position = {name: i for i, name in enumerate(completed)}
    assert position["probes"] < position["chaos_observations"]
    assert position["root_deployment"] < position["chaos_observations"]
    assert position["populations"] < position["offnets"]
    assert position["probes"] < position["gpdns_traceroutes"]


def test_build_parallel_subset_pulls_in_dependencies():
    scenario = Scenario(**SMALL)
    completed = build_parallel(scenario, max_workers=2, names=["offnets"])
    assert set(completed) == {"populations", "offnets"}


def test_parallel_and_serial_scenarios_are_identical():
    serial = Scenario(**SMALL)
    serial.build_all()
    parallel = Scenario(**SMALL)
    parallel.build_all(max_workers=4)
    for name in ("macro", "peeringdb", "chaos_observations", "ndt_tests",
                 "offnets", "gpdns_traceroutes"):
        # Dataset types don't define __eq__; deterministic generators
        # make byte-identical pickles the stronger equivalence anyway.
        assert pickle.dumps(getattr(serial, name)) == pickle.dumps(
            getattr(parallel, name)
        ), name


def test_parallel_and_serial_report_bytes_are_identical():
    serial = render_report(Scenario(**SMALL))
    parallel_scenario = Scenario(**SMALL)
    parallel_scenario.build_all(max_workers=4)
    assert render_report(parallel_scenario) == serial


def test_parallel_and_serial_record_same_dataset_counts():
    serial = Scenario(**SMALL)
    serial.build_all()
    registry = get_registry()
    serial_built = registry.counter("scenario.dataset.built").value
    serial_rows = registry.counter("rootdns.chaos.rows_emitted").value
    assert serial_built == 16

    import repro.obs

    repro.obs.reset()
    parallel = Scenario(**SMALL)
    parallel.build_all(max_workers=8)
    registry = get_registry()
    assert registry.counter("scenario.dataset.built").value == serial_built
    assert registry.counter("rootdns.chaos.rows_emitted").value == serial_rows


def test_parallel_records_span_and_worker_timers():
    enable_tracing(True)
    scenario = Scenario(**SMALL)
    scenario.build_all(max_workers=3)
    names = [record.name for record in get_tracer().finished()]
    assert "scenario.build.parallel" in names
    assert "scenario.build.macro" in names
    registry = get_registry()
    assert registry.gauge("exec.workers.max").value == 3.0
    worker_timers = [
        t for t in registry.timers() if t.name.startswith("exec.worker_")
    ]
    assert worker_timers, "per-worker busy timers must be recorded"
    assert sum(t.count for t in worker_timers) == 16


def test_build_spans_on_executor_threads_join_the_callers_trace():
    # A sampled request context builds a world on two executor threads:
    # contextvars do not cross into the pool, yet every dataset-build
    # span must chain through the parallel umbrella to the caller's root.
    rc = start_request_context(sample_rate=1.0)
    with use_context(rc):
        root = get_tracer().span(
            "serve.request.report", span_id=rc.span_id, parent_id=None
        )
        with root:
            Scenario(**SMALL).build_all(max_workers=2)
    spans = get_tracer().take_trace(rc.trace_id)
    by_id = {span.span_id: span for span in spans}
    builds = [
        span
        for span in spans
        if span.name.startswith("scenario.build.")
        and span.name != "scenario.build.parallel"
    ]
    assert len(builds) == 16  # one per dataset

    def ancestors(span):
        chain = []
        while span.parent_id is not None:
            span = by_id[span.parent_id]
            chain.append(span.name)
        return chain

    for span in builds:
        chain = ancestors(span)
        assert "scenario.build.parallel" in chain
        assert chain[-1] == "serve.request.report"
    assert len({span.thread for span in builds}) > 1  # really crossed threads


def test_parallel_build_with_warm_cache_builds_nothing(tmp_path):
    cache = DatasetCache(tmp_path / "c")
    Scenario(cache=cache, **SMALL).build_all(max_workers=4)
    store_count = get_registry().counter("scenario.cache.store").value
    assert store_count == 16

    import repro.obs

    repro.obs.reset()
    warm = Scenario(cache=cache, **SMALL)
    warm.build_all(max_workers=4)
    registry = get_registry()
    assert registry.counter("scenario.cache.hit").value == 16
    assert registry.counter("scenario.dataset.built").value == 0
    assert set(warm._materialised) == set(dataset_names())


def test_parallel_build_propagates_builder_errors(monkeypatch):
    scenario = Scenario(**SMALL)

    def boom():
        raise RuntimeError("generator exploded")

    monkeypatch.setattr(
        "repro.core.scenario.synthesize_macro", boom
    )
    with pytest.raises(RuntimeError, match="generator exploded"):
        scenario.build_all(max_workers=4)
