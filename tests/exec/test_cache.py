"""Tests for the persistent dataset cache: keys, envelope, corruption."""

import pickle

import pytest

import repro.obs
from repro.core import Scenario
from repro.core.scenario import dataset_names
from repro.exec import DatasetCache, default_cache_dir
from repro.exec.cache import CacheMiss
from repro.obs import get_registry

PARAMS = {"ndt_tests_per_month": 2, "gpdns_samples_per_month": 1, "seed": 7}


@pytest.fixture
def cache(tmp_path):
    return DatasetCache(tmp_path / "cache")


def test_default_dir_honours_xdg(isolated_cache_dir):
    assert default_cache_dir() == isolated_cache_dir


def test_miss_then_roundtrip(cache):
    assert isinstance(cache.load("macro", PARAMS), CacheMiss)
    assert cache.load("macro", PARAMS).reason == "absent"
    value = {"rows": list(range(100)), "label": "indicator"}
    path = cache.store("macro", PARAMS, value)
    assert path.is_file()
    assert cache.load("macro", PARAMS) == value


def test_key_changes_with_name_params_and_code(cache, monkeypatch):
    base = cache.key("macro", PARAMS)
    assert cache.key("cables", PARAMS) != base
    assert cache.key("macro", {**PARAMS, "seed": 8}) != base
    import repro.exec.cache as cache_mod

    monkeypatch.setattr(
        cache_mod, "code_fingerprint", lambda name: "0" * 64
    )
    assert cache.key("macro", PARAMS) != base


def test_corrupt_payload_is_quarantined_not_deleted(cache, capsys):
    path = cache.store("macro", PARAMS, [1, 2, 3])
    blob = path.read_bytes()
    path.write_bytes(blob[:-10] + b"garbagegar")  # flip payload tail bytes
    result = cache.load("macro", PARAMS)
    assert isinstance(result, CacheMiss)
    assert result.reason == "corrupt"
    # The damaged entry is set aside for post-mortem, never destroyed.
    assert not path.exists()
    quarantined = list(cache.quarantined())
    assert len(quarantined) == 1
    # Unique content-digest suffix: repeated corruption never overwrites
    # earlier evidence.
    assert quarantined[0].name.startswith(path.name + ".quarantined-")
    assert get_registry().counter("cache.corrupt").value == 1
    warning = capsys.readouterr().err
    assert "cache entry for dataset 'macro' is corrupt" in warning
    assert "checksum mismatch" in warning


def test_repeated_corruption_keeps_every_evidence_file(cache):
    for garbage in (b"first corruption", b"second corruption"):
        path = cache.store("macro", PARAMS, [1, 2, 3])
        blob = path.read_bytes()
        path.write_bytes(blob[: -len(garbage)] + garbage)
        assert cache.load("macro", PARAMS).reason == "corrupt"
    names = [p.name for p in cache.quarantined()]
    assert len(names) == 2
    assert len(set(names)) == 2, "each corruption must keep its own file"


def test_flipped_bit_triggers_rebuild_and_quarantine(tmp_path):
    # End-to-end: a single flipped payload bit must cost one rebuild and
    # leave the evidence behind.
    cache = DatasetCache(tmp_path / "c")
    cold = Scenario(cache=cache)
    cold.macro
    entry = cache.entry_path("macro", cold.cache_params())
    blob = bytearray(entry.read_bytes())
    blob[-1] ^= 0x01
    entry.write_bytes(bytes(blob))

    rebuilt = Scenario(cache=cache)
    rebuilt.macro  # rebuild, not a crash
    registry = get_registry()
    assert registry.counter("scenario.cache.corrupt").value == 1
    assert registry.counter("cache.corrupt").value == 1
    assert registry.counter("scenario.dataset.built").value == 2
    assert len(list(cache.quarantined())) == 1
    assert entry.exists(), "the rebuild must heal the live path"


def test_truncated_entry_is_corrupt_and_quarantined(cache):
    path = cache.store("macro", PARAMS, list(range(1000)))
    path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
    assert cache.load("macro", PARAMS).reason == "corrupt"
    assert len(list(cache.quarantined())) == 1
    # A rebuild stores to the live path; the quarantined copy remains.
    cache.store("macro", PARAMS, list(range(1000)))
    assert cache.load("macro", PARAMS) == list(range(1000))
    assert len(list(cache.quarantined())) == 1


def test_non_envelope_file_is_corrupt(cache):
    path = cache.entry_path("macro", PARAMS)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps([1, 2, 3]))  # bare pickle, no header
    assert cache.load("macro", PARAMS).reason == "corrupt"


def test_foreign_key_in_envelope_is_absent_not_corrupt(cache):
    # Same file path, different full key inside: not served, but also
    # not corruption — the entry belongs to another configuration, so
    # the rebuild just overwrites it without quarantining anything.
    path = cache.store("macro", PARAMS, "right")
    other = cache.store("macro", {**PARAMS, "seed": 99}, "wrong")
    assert path != other
    blob = other.read_bytes()
    path.write_bytes(blob)
    miss = cache.load("macro", PARAMS)
    assert isinstance(miss, CacheMiss)
    assert miss.reason == "absent"
    assert list(cache.quarantined()) == []
    assert get_registry().counter("cache.corrupt").value == 0


def test_v1_entry_is_plain_miss_not_quarantined(cache):
    # A leftover repro.cache/1 entry after the codec upgrade: a plain
    # rebuild, never a corruption warning.
    import json as _json

    path = cache.entry_path("macro", PARAMS)
    path.parent.mkdir(parents=True)
    payload = pickle.dumps([1, 2, 3])
    header = _json.dumps(
        {"schema": "repro.cache/1", "dataset": "macro",
         "key": cache.key("macro", PARAMS), "payload_bytes": len(payload)}
    )
    path.write_bytes(header.encode() + b"\n" + payload)
    miss = cache.load("macro", PARAMS)
    assert isinstance(miss, CacheMiss)
    assert miss.reason == "absent"
    assert list(cache.quarantined()) == []
    assert get_registry().counter("cache.corrupt").value == 0
    # The rebuild overwrites the stale entry in place.
    cache.store("macro", PARAMS, [1, 2, 3])
    assert cache.load("macro", PARAMS) == [1, 2, 3]


def test_legacy_pkl_files_are_accounted_and_cleared(cache):
    cache.store("macro", PARAMS, "a")
    legacy = cache.root / "cables-0123456789abcdef.pkl"
    legacy.write_bytes(b"old v1 entry")
    info = cache.info()
    assert info.entries == 2
    assert cache.clear() == 2
    assert not legacy.exists()
    assert cache.info().entries == 0


def test_info_and_clear(cache):
    assert cache.info().entries == 0
    cache.store("macro", PARAMS, "a")
    cache.store("cables", PARAMS, "b")
    info = cache.info()
    assert info.entries == 2
    assert info.total_bytes > 0
    assert "entries" in info.render()
    assert "quarantined" not in info.render()  # only shown when non-zero
    assert cache.clear() == 2
    assert cache.info().entries == 0
    assert cache.clear() == 0  # idempotent on empty/missing dir


def test_info_counts_quarantined_and_clear_removes_them(cache):
    path = cache.store("macro", PARAMS, "a")
    path.write_bytes(b"broken")
    cache.load("macro", PARAMS)  # quarantines
    info = cache.info()
    assert (info.entries, info.quarantined) == (0, 1)
    assert "quarantined     : 1" in info.render()
    assert cache.clear() == 1
    assert list(cache.quarantined()) == []


def test_scenario_build_records_hit_miss_and_corrupt_counters(tmp_path):
    cache = DatasetCache(tmp_path / "c")
    registry = get_registry()

    cold = Scenario(cache=cache)
    cold.macro
    assert registry.counter("scenario.cache.miss").value == 1
    assert registry.counter("scenario.cache.store").value == 1
    assert registry.counter("scenario.dataset.built").value == 1

    warm = Scenario(cache=cache)
    warm.macro
    assert registry.counter("scenario.cache.hit").value == 1
    assert registry.counter("scenario.dataset.built").value == 1  # unchanged

    # Corrupt the entry: next scenario counts corrupt + miss and rebuilds.
    entry = cache.entry_path("macro", warm.cache_params())
    entry.write_bytes(b"not an envelope at all")
    rebuilt = Scenario(cache=cache)
    rebuilt.macro
    assert registry.counter("scenario.cache.corrupt").value == 1
    assert registry.counter("scenario.cache.miss").value == 2
    assert registry.counter("scenario.dataset.built").value == 2
    # ... and the rebuild healed the entry.
    healed = Scenario(cache=cache)
    assert pickle.dumps(healed.macro) == pickle.dumps(rebuilt.macro)
    assert registry.counter("scenario.cache.hit").value == 2


def test_warm_build_all_builds_nothing(tmp_path):
    cache = DatasetCache(tmp_path / "c")
    small = {"ndt_tests_per_month": 1, "gpdns_samples_per_month": 1}
    Scenario(cache=cache, **small).build_all()
    assert get_registry().counter("scenario.cache.store").value == 16

    repro.obs.reset()
    warm = Scenario(cache=cache, **small)
    warm.build_all()
    registry = get_registry()
    assert registry.counter("scenario.cache.hit").value == 16
    assert registry.counter("scenario.dataset.built").value == 0
    assert set(warm._materialised) == set(dataset_names())


def test_cached_dataset_equals_built_dataset(tmp_path):
    cache = DatasetCache(tmp_path / "c")
    built = Scenario(cache=cache).macro
    loaded = Scenario(cache=cache).macro
    assert pickle.dumps(built) == pickle.dumps(loaded)
    assert built is not loaded


def test_derived_dataset_hit_short_circuits_dependencies(tmp_path):
    cache = DatasetCache(tmp_path / "c")
    cold = Scenario(cache=cache)
    cold.offnets  # builds populations too
    assert "populations" in cold._materialised

    warm = Scenario(cache=cache)
    warm.offnets
    # Served whole from cache: the populations dependency never built.
    assert "populations" not in warm._materialised
    # Compare in wire format: a roundtripped object graph repickles with
    # different memo refs, but must serialise to identical CSV.
    cold.offnets.save(tmp_path / "cold.csv")
    warm.offnets.save(tmp_path / "warm.csv")
    assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
