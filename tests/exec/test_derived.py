"""Persisted derived values: keyed by their code, checked against their reads.

``Scenario.derive`` stores the 23 exhibits, the four findings and the
five scorecard panels in the dataset cache.  These tests prove that an
entry covers the code that computes it, that it is never used for a
world whose datasets differ from the ones it read, and that a
degradation placeholder is never stored.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.obs
from repro.core import Scenario, exhibit_ids
from repro.core.narrative import all_findings
from repro.core.report import is_degraded, run_all, run_exhibit
from repro.core.scorecard import build_scorecard
from repro.exec import DatasetCache
from repro.exec.dag import DERIVED_MODULES
from repro.obs import get_registry, metrics_from_json
from tests.exec.test_dag import _defining_module, _from_imports, _plumbing
from tests.ingest.test_inherit import _ndt_batch

SMALL = {"ndt_tests_per_month": 2, "gpdns_samples_per_month": 1}


def _counter(name: str) -> float:
    return get_registry().counter(name).value


def _compute_everything(scenario: Scenario) -> None:
    """Every persisted value of *scenario*: exhibits, findings, panels."""
    run_all(scenario)
    all_findings(scenario)
    build_scorecard(scenario, "VE")


# -- module coverage ---------------------------------------------------------


@pytest.fixture(scope="module")
def traced_values():
    """``derive key -> (defining module, modules it needs)`` for all 32 values.

    Each call site runs on a fresh uncached scenario that already holds
    every dataset, so a trace sees the value's own computation and the
    shared intermediates it computes, never a build.
    """
    built = Scenario(**SMALL)
    built.build_all()
    traces: dict = {}
    real_derive = Scenario.derive

    def traced_derive(self, key, thunk, persist=None):
        if persist is None:
            return real_derive(self, key, thunk)

        def run():
            ran: set[str] = set()

            def profile(frame, event, _arg):
                if event == "call":
                    ran.add(frame.f_globals.get("__name__", ""))

            sys.setprofile(profile)
            try:
                return thunk()
            finally:
                sys.setprofile(None)
                traces[key] = (persist.module, ran)

        return real_derive(self, key, run, persist)

    def fresh() -> Scenario:
        scenario = Scenario(**SMALL)
        scenario._materialised.update(built._materialised)
        return scenario

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Scenario, "derive", traced_derive)
        for exhibit_id in exhibit_ids():
            run_exhibit(fresh(), exhibit_id)
        all_findings(fresh())
        build_scorecard(fresh(), "VE")

    needed = {}
    for key, (module, ran) in traces.items():
        ran = {m for m in ran if m.split(".")[0] == "repro" and not _plumbing(m)}
        imported = {
            _defining_module(source, original)
            for name in ran - {"repro.core.scenario"}
            for source, original, _bound in _from_imports(name)
        }
        needed[key] = (module, ran | {m for m in imported if not _plumbing(m)})
    return needed


def test_every_persisted_value_is_traced(traced_values):
    assert len(traced_values) == 32
    assert {key[0] for key in traced_values} == {"exhibit", "finding", "scorecard"}


def test_the_key_covers_the_modules_a_value_runs(traced_values):
    # An edit to any module whose code runs while a value is computed,
    # or whose names such a module imports, must change the value's key.
    for key, (module, needed) in traced_values.items():
        missing = needed - {module, *DERIVED_MODULES}
        assert missing == set(), (key, sorted(missing))


def test_no_value_runs_another_values_defining_module(traced_values):
    # So an edit to one exhibit module recomputes only what it defines.
    defining = {module for module, _needed in traced_values.values()}
    assert len(defining) == 8
    for key, (module, needed) in traced_values.items():
        assert needed & defining == {module}, key


# -- hits, misses and the read check -------------------------------------------


@pytest.fixture
def warm_cache(tmp_path):
    """A cache holding every dataset and every persisted value of SMALL."""
    cache = DatasetCache(tmp_path / "cache")
    _compute_everything(Scenario(cache=cache, strict=False, **SMALL))
    assert _counter("scenario.derived.store") == 32
    repro.obs.reset()
    return cache


def test_a_warm_world_loads_values_and_builds_nothing(warm_cache):
    _compute_everything(Scenario(cache=warm_cache, strict=False, **SMALL))
    assert _counter("scenario.derived.hit") == 32
    assert _counter("scenario.derived.miss") == 0
    assert _counter("exhibit.runs") == 0
    assert _counter("scenario.cache.hit") == 0
    assert _counter("scenario.dataset.built") == 0


def test_a_hit_memoizes_the_stored_reads(warm_cache):
    world = Scenario(cache=warm_cache, strict=False, **SMALL)
    run_exhibit(world, "fig11")
    assert _counter("scenario.derived.hit") == 1
    assert world._derived[("exhibit", "fig11")][1] == {"ndt_tests"}


def test_a_fault_plan_neither_reads_nor_writes_entries(warm_cache):
    from repro.faults import FaultPlan

    planned = Scenario(
        cache=warm_cache, strict=False, fault_plan=FaultPlan(), **SMALL
    )
    run_exhibit(planned, "fig01")
    assert _counter("exhibit.runs") == 1
    assert _counter("scenario.derived.hit") == _counter("scenario.derived.store") == 0


def test_a_changed_dataset_key_is_a_plain_miss(warm_cache, monkeypatch):
    real_key = DatasetCache.key

    def key(self, name, params):
        digest = real_key(self, name, params)
        return digest[::-1] if name == "ndt_tests" else digest

    monkeypatch.setattr(DatasetCache, "key", key)
    world = Scenario(cache=warm_cache, strict=False, **SMALL)
    run_exhibit(world, "fig11")
    run_exhibit(world, "fig01")
    assert _counter("scenario.derived.miss") == 1
    assert _counter("scenario.derived.hit") == 1
    assert _counter("exhibit.runs") == 1
    assert _counter("scenario.derived.store") == 1  # overwritten in place
    assert _counter("cache.corrupt") == 0
    assert list(warm_cache.quarantined()) == []


def test_a_flipped_payload_byte_is_quarantined_and_recomputed(warm_cache):
    expected = run_exhibit(Scenario(**SMALL), "fig11")
    repro.obs.reset()
    entries = {
        path: path.read_bytes().partition(b"\n")[0]
        for path in warm_cache.entries()
        if path.name.startswith("derived-")
    }
    (path,) = [p for p, header in entries.items() if b'"exhibit/fig11"' in header]
    blob = bytearray(path.read_bytes())
    # A digit of the payload, so the damaged JSON still parses.
    payload = blob.index(b"\n") + 1
    position = next(i for i in range(payload, len(blob)) if chr(blob[i]).isdigit())
    blob[position] = ord("7") if blob[position] != ord("7") else ord("3")
    path.write_bytes(bytes(blob))

    world = Scenario(cache=warm_cache, strict=False, **SMALL)
    assert run_exhibit(world, "fig11") == expected
    assert _counter("cache.corrupt") == 1
    assert _counter("exhibit.runs") == 1
    assert len(list(warm_cache.quarantined())) == 1


# -- placeholders ----------------------------------------------------------------


def test_a_degraded_dataset_stores_no_placeholder(tmp_path, monkeypatch):
    def broken():
        raise OSError("cable map unavailable")

    cache = DatasetCache(tmp_path / "cache")
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.scenario.synthesize_cable_map", broken)
        world = Scenario(cache=cache, strict=False, **SMALL)
        _compute_everything(world)
        assert [d.name for d in world.degraded()] == ["cables"]
    # fig04, the infrastructure finding and the cable panel read cables.
    assert _counter("scenario.derived.store") == 32 - 3

    repro.obs.reset()
    healthy = Scenario(cache=cache, strict=False, **SMALL)
    _compute_everything(healthy)
    assert healthy.degraded() == []
    assert _counter("scenario.derived.hit") == 29
    assert _counter("exhibit.runs") == 1
    assert _counter("scenario.derived.store") == 3
    assert "degraded" not in build_scorecard(healthy, "VE").to_dict()

    # Nor is a stored value loaded over a dataset degraded in this world.
    cache.entry_path("cables", healthy.cache_params()).unlink()
    repro.obs.reset()
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.scenario.synthesize_cable_map", broken)
        world = Scenario(cache=cache, strict=False, **SMALL)
        world.build_all()
        assert is_degraded(run_exhibit(world, "fig04"))
    assert _counter("scenario.derived.miss") == 1
    assert _counter("scenario.derived.store") == 0


# -- ingest over a world that loaded its values ------------------------------------


def test_an_append_over_a_loaded_world_recomputes_what_it_changed(
    warm_cache, tmp_path
):
    from repro.ingest.service import IngestService, apply_ingest

    world = Scenario(cache=warm_cache, strict=False, **SMALL)
    world.build_all()
    base = run_exhibit(world, "fig11")
    assert _counter("scenario.derived.hit") == 1
    assert _counter("exhibit.runs") == 0

    service = IngestService(tmp_path / "wal", fsync=False)
    try:
        service.submit("ndt", _ndt_batch())
        inherited = apply_ingest(
            service, warm_cache, dict(SMALL), strict=False, previous=world
        )
        fresh = apply_ingest(service, warm_cache, dict(SMALL), strict=False)
    finally:
        service.wal.close()
    fig11 = inherited.store.get("/v1/exhibit/fig11").body
    assert run_exhibit(inherited.scenario, "fig11") != base
    assert fig11 == fresh.store.get("/v1/exhibit/fig11").body
    assert inherited.fingerprints() == fresh.fingerprints()


# -- an edit to one exhibit module -------------------------------------------------


def _report_metrics(src: Path, cache: Path, out: Path) -> dict:
    """``repro report`` over *src* and *cache*; its counters and timers."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    finished = subprocess.run(
        [sys.executable, "-m", "repro", "--cache-dir", str(cache),
         "--metrics-json", str(out), "report"],
        env=env, capture_output=True, timeout=180,
    )
    assert finished.returncode == 0, finished.stderr[-2000:]
    return metrics_from_json(out.read_text(encoding="utf-8"))["metrics"]


def test_editing_one_exhibit_module_recomputes_only_its_exhibits(tmp_path):
    import repro

    src = tmp_path / "src"
    shutil.copytree(
        Path(repro.__file__).parent, src / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cache = tmp_path / "cache"
    cold = _report_metrics(src, cache, tmp_path / "cold.json")
    assert cold["counters"]["scenario.derived.store"] == 23

    with open(src / "repro" / "core" / "exhibits" / "performance.py", "a") as module:
        module.write("# an edit that changes no value\n")
    edited = _report_metrics(src, cache, tmp_path / "edited.json")
    recomputed = {
        name.removeprefix("exhibit.run.")
        for name in edited["timers"]
        if name.startswith("exhibit.run.")
    }
    assert recomputed == {"fig11", "fig12", "fig20"}
    assert edited["counters"]["exhibit.runs"] == 3
    assert edited["counters"]["scenario.derived.hit"] == 20
    assert edited["counters"]["scenario.derived.miss"] == 3
    assert "scenario.dataset.built" not in edited["counters"]

