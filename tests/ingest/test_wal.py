"""The ``repro.wal/1`` journal: framing, durability, dedupe, rotation."""

import json
import os
import stat
import struct
import zlib

import pytest

from repro.ingest import wal as wal_module
from repro.ingest.wal import (
    WAL_SCHEMA,
    WalCorruptionError,
    WalLockedError,
    WriteAheadLog,
    idempotency_key,
)
from repro.obs import get_registry


def _lines(n, tag="a"):
    return [json.dumps({"row": i, "tag": tag}) for i in range(n)]


def test_append_then_replay_round_trips(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal")
    first = wal.append("ndt", _lines(3), {"source": "test"})
    second = wal.append("atlas", _lines(2, "b"))
    assert (first.seq, second.seq) == (1, 2)
    assert not first.duplicate
    wal.close()

    with WriteAheadLog(tmp_path / "wal") as reopened:
        records, report = reopened.replay()
    assert [r.seq for r in records] == [1, 2]
    assert records[0].format == "ndt"
    assert records[0].lines == tuple(_lines(3))
    assert records[0].meta == {"source": "test"}
    assert records[1].format == "atlas"
    assert report.records == 2
    assert report.torn == 0
    assert reopened.last_seq == 2


def test_duplicate_content_is_a_no_op(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal")
    first = wal.append("ndt", _lines(3))
    again = wal.append("ndt", _lines(3))
    wal.close()
    assert again.duplicate
    assert again.seq == first.seq
    assert wal.last_seq == 1
    assert get_registry().counter("wal.duplicates").value == 1
    # The duplicate wrote nothing: the journal holds exactly one frame.
    with WriteAheadLog(tmp_path / "wal") as reopened:
        records, _ = reopened.replay()
    assert len(records) == 1


def test_dedupe_survives_reopen(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal")
    original = wal.append("ndt", _lines(3))
    wal.close()
    reopened = WriteAheadLog(tmp_path / "wal")
    again = reopened.append("ndt", _lines(3))
    reopened.close()
    assert again.duplicate
    assert again.seq == original.seq
    assert reopened.seq_for(idempotency_key("ndt", _lines(3))) == original.seq


def test_key_depends_on_format_and_content(tmp_path):
    assert idempotency_key("ndt", ["x"]) != idempotency_key("atlas", ["x"])
    assert idempotency_key("ndt", ["x"]) != idempotency_key("ndt", ["y"])
    # Joining ambiguity: ["ab"] must differ from ["a", "b"].
    assert idempotency_key("ndt", ["ab"]) != idempotency_key("ndt", ["a", "b"])


def test_segment_rotation(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal", max_segment_bytes=256)
    for i in range(8):
        wal.append("ndt", [json.dumps({"i": i, "pad": "x" * 64})])
    assert len(wal.segments()) > 1
    wal.close()
    with WriteAheadLog(tmp_path / "wal") as reopened:
        records, report = reopened.replay()
    assert [r.seq for r in records] == list(range(1, 9))
    assert report.segments == len(wal.segments())


def test_append_continues_after_rotation_and_reopen(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal", max_segment_bytes=256)
    for i in range(6):
        wal.append("ndt", [json.dumps({"i": i, "pad": "x" * 64})])
    wal.close()
    reopened = WriteAheadLog(tmp_path / "wal", max_segment_bytes=256)
    result = reopened.append("ndt", [json.dumps({"i": "late"})])
    reopened.close()
    assert result.seq == 7
    with WriteAheadLog(tmp_path / "wal") as again:
        records, _ = again.replay()
    assert [r.seq for r in records] == list(range(1, 8))


def test_corruption_in_non_final_segment_raises(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal", max_segment_bytes=256)
    for i in range(8):
        wal.append("ndt", [json.dumps({"i": i, "pad": "x" * 64})])
    wal.close()
    segments = wal.segments()
    assert len(segments) >= 2
    blob = bytearray(segments[0].read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    segments[0].write_bytes(bytes(blob))
    with pytest.raises(WalCorruptionError):
        WriteAheadLog(tmp_path / "wal", max_segment_bytes=256)


def test_foreign_schema_payload_is_rejected(tmp_path):
    root = tmp_path / "wal"
    root.mkdir()
    payload = json.dumps({"schema": "other/1", "seq": 1}).encode()
    frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
    (root / "wal-00000001.seg").write_bytes(frame)
    with WriteAheadLog(root) as wal:
        records, report = wal.replay()
    assert records == []
    assert report.torn == 1


def test_checkpoint_round_trip(tmp_path):
    with WriteAheadLog(tmp_path / "wal") as wal:
        assert wal.read_checkpoint() is None
        wal.write_checkpoint(7, fingerprints={"artifacts": "abc"})
        document = wal.read_checkpoint()
    assert document["schema"] == WAL_SCHEMA
    assert document["applied_seq"] == 7
    assert document["fingerprints"] == {"artifacts": "abc"}


def test_damaged_checkpoint_reads_as_none(tmp_path):
    with WriteAheadLog(tmp_path / "wal") as wal:
        wal.write_checkpoint(3)
        wal.checkpoint_path().write_text("{not json")
        assert wal.read_checkpoint() is None


def test_append_counters(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal")
    wal.append("ndt", _lines(2))
    wal.close()
    registry = get_registry()
    assert registry.counter("wal.appends").value == 1
    assert registry.counter("wal.bytes").value > 0


def test_a_second_opener_is_refused_until_close(tmp_path):
    # Two open journals on one directory would ack the same seq for
    # different batches, and the second's scan could truncate the
    # first's record in flight as a torn tail.
    wal = WriteAheadLog(tmp_path / "wal")
    wal.append("ndt", _lines(2))
    with pytest.raises(WalLockedError, match=str(tmp_path / "wal")):
        WriteAheadLog(tmp_path / "wal")
    wal.close()
    reopened = WriteAheadLog(tmp_path / "wal")
    assert reopened.append("ndt", _lines(2, "b")).seq == 2
    reopened.close()
    assert [p.name for p in reopened.segments()] == ["wal-00000001.seg"]


def test_a_journal_closes_when_its_with_block_ends(tmp_path):
    with WriteAheadLog(tmp_path / "wal") as wal:
        wal.append("ndt", _lines(2))
        with pytest.raises(WalLockedError):
            WriteAheadLog(tmp_path / "wal")
    with WriteAheadLog(tmp_path / "wal") as reopened:
        assert reopened.last_seq == 1


def test_a_refused_scan_releases_the_lock(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal", max_segment_bytes=256)
    for i in range(4):
        wal.append("ndt", [json.dumps({"i": i, "pad": "x" * 64})])
    wal.close()
    first = wal.segments()[0]
    first.write_bytes(b"\xff" + first.read_bytes()[1:])
    for _ in range(2):  # the failed open did not keep the lock
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(tmp_path / "wal", max_segment_bytes=256)


@pytest.fixture
def fsyncs(monkeypatch):
    """Whether each fd ``repro.ingest.wal`` fsyncs is a directory."""
    calls = []
    real = os.fsync

    def recording(fd):
        calls.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real(fd)

    monkeypatch.setattr(wal_module.os, "fsync", recording)
    return calls


def test_a_new_segment_fsyncs_its_directory(tmp_path, fsyncs):
    wal = WriteAheadLog(tmp_path / "wal")
    assert fsyncs == [True]  # the parent of the created journal directory
    fsyncs.clear()
    wal.append("ndt", _lines(2))
    assert sorted(fsyncs) == [False, True]  # the segment and its directory
    fsyncs.clear()
    wal.append("ndt", _lines(2, "b"))
    assert fsyncs == [False]  # same segment: its entry is already durable
    wal.close()


def test_no_fsync_means_no_directory_fsync(tmp_path, fsyncs):
    wal = WriteAheadLog(tmp_path / "wal", fsync=False)
    wal.append("ndt", _lines(2))
    wal.append("ndt", _lines(2, "b"))
    wal.close()
    assert fsyncs == []
