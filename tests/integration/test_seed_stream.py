"""Seed-stream regression pins for the vectorized generators.

``tests/data/seed_stream_pins.json`` was captured from the historical
row-by-row generators (per-row RNG draws, per-row object construction)
immediately before the columnar refactor.  These tests replay the
vectorized column-batch pipelines against it: row counts, the first and
last row every country contributes, and a SHA-256 over the ``repr`` of
every formatted row.  Any reordering of RNG draws, any drift in a
single double, and the digests diverge — this is the contract that the
vectorization changed *how* the streams are produced, not *what* they
contain.
"""

import hashlib
import json
from pathlib import Path

from repro.mlab.synthetic import NDTLoadModel, synthesize_ndt_columns

_PINS = json.loads(
    (Path(__file__).resolve().parent.parent / "data" / "seed_stream_pins.json")
    .read_text(encoding="utf-8")
)


def _ndt_row(r):
    return [r.date.isoformat(), r.country, r.asn, r.download_mbps,
            r.upload_mbps, r.min_rtt_ms, r.loss_rate]


def _trace_row(r):
    return [r.probe_id, r.msm_id, r.timestamp, r.dst_addr,
            [[h.hop, [[ip, rtt] for ip, rtt in h.replies]] for h in r.hops]]


def _chaos_row(o):
    return [str(o.month), o.probe_id, o.probe_country, o.letter, o.answer]


def _digest(rows, fmt):
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(fmt(row)).encode())
        h.update(b"\n")
    return h.hexdigest()


def _check_pinned_rows(pins, batch, fmt):
    assert len(batch) == pins["rows"]
    for edge in ("first", "last"):
        for country, (index, row) in pins[edge].items():
            assert fmt(batch[index]) == row, (edge, country, index)


def test_ndt_stream_matches_seed_pins(scenario):
    pins = _PINS["ndt"]
    batch = scenario.ndt_tests
    _check_pinned_rows(pins, batch, _ndt_row)
    assert _digest(batch, _ndt_row) == pins["digest"]


def test_gpdns_stream_matches_seed_pins(scenario):
    pins = _PINS["gpdns"]
    batch = scenario.gpdns_traceroutes
    _check_pinned_rows(pins, batch, _trace_row)
    assert _digest(batch, _trace_row) == pins["digest"]


def test_chaos_stream_matches_seed_pins(scenario):
    pins = _PINS["chaos"]
    batch = scenario.chaos_observations
    _check_pinned_rows(pins, batch, _chaos_row)
    assert _digest(batch, _chaos_row) == pins["digest"]


def test_alternate_model_matches_seed_pins():
    # A different seed and size, so the pin cannot accidentally pass via
    # the default-parameter cache of some shared fixture.
    pins = _PINS["small_ndt"]
    rows = list(synthesize_ndt_columns(NDTLoadModel(seed=7, tests_per_month=3)))
    assert len(rows) == pins["rows"]
    assert _digest(rows, _ndt_row) == pins["digest"]
