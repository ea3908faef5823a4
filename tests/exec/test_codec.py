"""The ``repro.cache/2`` columnar codec: round-trips, corruption, races.

The codec has two payload shapes — registered column batches stored as
raw numpy buffers, and a pickle fallback for everything else — and both
must round-trip every dataset a Scenario can produce and survive
concurrent warm loads.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.columnar import ColumnBatch, Columnar, registered_kinds
from repro.core.degrade import DegradedDataset
from repro.core.scenario import dataset_names
from repro.exec import DatasetCache
from repro.exec.cache import CacheMiss
from repro.mlab.columns import NDTColumns
from repro.obs import get_registry

PARAMS = {"ndt_tests_per_month": 2, "gpdns_samples_per_month": 1, "seed": 7}


def _equal(a, b):
    """Dataset equality, tolerating value types without ``__eq__``."""
    if a == b:
        return True
    return (
        type(a) is type(b)
        and hasattr(a, "__dict__")
        and a.__dict__ == b.__dict__
    )


def test_every_dataset_round_trips(tmp_path, scenario):
    cache = DatasetCache(tmp_path / "c")
    for name in dataset_names():
        value = getattr(scenario, name)
        cache.store(name, PARAMS, value)
        loaded = cache.load(name, PARAMS)
        assert not isinstance(loaded, CacheMiss), name
        assert _equal(value, loaded), name


def test_column_batches_skip_pickle_on_disk(tmp_path, scenario):
    # The three heavy datasets are batches and the three BGP/off-net
    # archives columnar values: all must serialise as raw column
    # buffers, not pickle, with a header naming the registered kind.
    import json

    cache = DatasetCache(tmp_path / "c")
    kinds = set()
    for name in ("ndt_tests", "gpdns_traceroutes", "chaos_observations"):
        assert isinstance(getattr(scenario, name), ColumnBatch)
    for name in (
        "ndt_tests",
        "gpdns_traceroutes",
        "chaos_observations",
        "prefix2as",
        "asrel",
        "offnets",
    ):
        value = getattr(scenario, name)
        assert isinstance(value, Columnar)
        path = cache.store(name, PARAMS, value)
        header = json.loads(path.read_bytes().partition(b"\n")[0])
        assert header["kind"] == value.kind
        kinds.add(header["kind"])
    assert kinds == {
        "mlab.ndt/1",
        "atlas.traceroute/1",
        "rootdns.chaos/1",
        "bgp.prefix2as/1",
        "bgp.asrel/1",
        "offnets.presence/1",
    }
    assert kinds <= set(registered_kinds())


def test_warm_report_unpickles_only_the_pickle_entries(tmp_path, monkeypatch):
    # The 15 datasets a report reads (all but root_deployment, which only
    # the chaos_observations builder reads) load warm; the six columnar
    # ones are buffer views, so only the other nine go through
    # pickle.loads.  A warm report itself loads none of them: its 23
    # exhibits come from their JSON entries, so it unpickles nothing.
    import pickle

    import repro.obs
    from repro.core import Scenario
    from repro.core.report import run_all
    from repro.core.scenario import dataset_names

    small = {"ndt_tests_per_month": 1, "gpdns_samples_per_month": 1}
    cache = DatasetCache(tmp_path / "c")
    run_all(Scenario(cache=cache, strict=False, **small))
    loads = []
    real_loads = pickle.loads

    def counting_loads(data, *args, **kwargs):
        loads.append(len(data))
        return real_loads(data, *args, **kwargs)

    monkeypatch.setattr(pickle, "loads", counting_loads)
    repro.obs.reset()
    warm = Scenario(cache=cache, strict=False, **small)
    for name in dataset_names():
        if name != "root_deployment":
            warm.materialise(name)
    assert get_registry().counter("scenario.cache.hit").value == 15
    assert get_registry().counter("scenario.dataset.built").value == 0
    assert len(loads) == 9

    loads.clear()
    repro.obs.reset()
    run_all(Scenario(cache=cache, strict=False, **small))
    assert get_registry().counter("scenario.derived.hit").value == 23
    assert get_registry().counter("scenario.cache.hit").value == 0
    assert loads == []


def test_loaded_batch_views_are_zero_copy_reads(tmp_path, scenario):
    cache = DatasetCache(tmp_path / "c")
    cache.store("ndt_tests", PARAMS, scenario.ndt_tests)
    loaded = cache.load("ndt_tests", PARAMS)
    # frombuffer views over the file bytes: read-only by construction.
    assert not loaded.download_mbps.flags.writeable
    assert np.array_equal(loaded.download_mbps, scenario.ndt_tests.download_mbps)


def test_degraded_sentinel_round_trips(tmp_path):
    cache = DatasetCache(tmp_path / "c")
    sentinel = DegradedDataset(name="macro", reason="boom")
    cache.store("macro", PARAMS, sentinel)
    assert cache.load("macro", PARAMS) == sentinel


def test_empty_batch_round_trips(tmp_path):
    cache = DatasetCache(tmp_path / "c")
    empty = NDTColumns.from_columns(
        {"countries": []},
        {
            "month_ordinal": np.empty(0, dtype=np.int32),
            "day": np.empty(0, dtype=np.uint8),
            "country_idx": np.empty(0, dtype=np.uint16),
            "asn": np.empty(0, dtype=np.int64),
            "download_mbps": np.empty(0),
            "upload_mbps": np.empty(0),
            "min_rtt_ms": np.empty(0),
            "loss_rate": np.empty(0),
        },
    )
    cache.store("ndt_tests", PARAMS, empty)
    loaded = cache.load("ndt_tests", PARAMS)
    assert isinstance(loaded, NDTColumns)
    assert len(loaded) == 0
    assert loaded == empty


def test_corrupt_column_is_quarantined(tmp_path, scenario, capsys):
    cache = DatasetCache(tmp_path / "c")
    path = cache.store("gpdns_traceroutes", PARAMS, scenario.gpdns_traceroutes)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF  # flip one byte mid-column
    path.write_bytes(bytes(blob))
    miss = cache.load("gpdns_traceroutes", PARAMS)
    assert isinstance(miss, CacheMiss)
    assert miss.reason == "corrupt"
    assert len(list(cache.quarantined())) == 1
    assert get_registry().counter("cache.corrupt").value == 1
    assert "checksum mismatch in column" in capsys.readouterr().err


def test_unknown_batch_kind_is_quarantined(tmp_path, scenario):
    import json

    cache = DatasetCache(tmp_path / "c")
    path = cache.store("ndt_tests", PARAMS, scenario.ndt_tests)
    header_line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(header_line)
    header["kind"] = "mlab.ndt/99"
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
    miss = cache.load("ndt_tests", PARAMS)
    assert miss.reason == "corrupt"
    assert len(list(cache.quarantined())) == 1


def test_eight_threads_warm_load_byte_identical(tmp_path, scenario):
    # Mirrors tests/exec/test_race.py: one stored batch, eight
    # simultaneous loaders, every result identical down to the buffers.
    cache = DatasetCache(tmp_path / "c")
    stored = scenario.chaos_observations
    cache.store("chaos_observations", PARAMS, stored)
    barrier = threading.Barrier(8)

    def load():
        barrier.wait()
        return cache.load("chaos_observations", PARAMS)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = [f.result() for f in [pool.submit(load) for _ in range(8)]]
    for loaded in results:
        assert not isinstance(loaded, CacheMiss)
        assert loaded == stored
        assert loaded.answer_idx.tobytes() == stored.answer_idx.tobytes()
    assert get_registry().counter("cache.corrupt").value == 0
