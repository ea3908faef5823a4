"""Torn-write recovery fuzz: damage the journal tail at every offset.

The durability contract is that a crash mid-write can only damage the
*final* record of the final segment — everything fsync'd-and-acked
before it must survive replay untouched, and the torn record (never
acked) must be dropped cleanly.  These tests prove that property
exhaustively: the final record is truncated at every possible byte
length, and separately corrupted at every single byte offset, and in
every case recovery keeps exactly the committed prefix.
"""

import json

import pytest

from repro.ingest.wal import WriteAheadLog
from repro.obs import get_registry

COMMITTED = 4  # records fully written and acked before the torn one


def _build_journal(root):
    """A journal with COMMITTED acked records plus one final record."""
    wal = WriteAheadLog(root, fsync=False)
    for i in range(COMMITTED + 1):
        wal.append("ndt", [json.dumps({"row": i, "pad": "p" * 16})])
    wal.close()
    segments = wal.segments()
    assert len(segments) == 1
    return segments[0]


def _final_record_span(segment):
    """(committed_end, total) byte offsets delimiting the final record."""
    # Reparse the intact segment to find where the committed prefix ends.
    with WriteAheadLog(segment.parent) as probe:
        records, _ = probe.replay()
    assert len(records) == COMMITTED + 1
    blob = segment.read_bytes()
    # Walk frames: header is 8 bytes, length is the first u32.
    import struct

    offset = 0
    starts = []
    while offset < len(blob):
        starts.append(offset)
        (length,) = struct.unpack_from("<I", blob, offset)
        offset += 8 + length
    assert len(starts) == COMMITTED + 1
    return starts[-1], len(blob)


def _assert_committed_prefix_survives(root, expect_torn):
    """Reopen *root*, check its replay, and return the open journal."""
    wal = WriteAheadLog(root)
    records, report = wal.replay()
    assert [r.seq for r in records] == list(range(1, COMMITTED + 1))
    assert [json.loads(r.lines[0])["row"] for r in records] == list(
        range(COMMITTED)
    )
    assert report.torn == (1 if expect_torn else 0)
    return wal


def test_truncation_at_every_byte_of_the_final_record(tmp_path):
    template = tmp_path / "template"
    segment = _build_journal(template)
    committed_end, total = _final_record_span(segment)
    blob = segment.read_bytes()
    for cut in range(committed_end, total):
        root = tmp_path / f"cut-{cut}"
        root.mkdir()
        (root / segment.name).write_bytes(blob[:cut])
        wal = _assert_committed_prefix_survives(root, expect_torn=cut > committed_end)
        # Recovery truncated the torn bytes: the journal accepts a fresh
        # append that lands as the next committed record.
        result = wal.append("ndt", [json.dumps({"row": "post-recovery", "cut": cut})])
        wal.close()
        assert result.seq == COMMITTED + 1
        assert not result.duplicate
        with WriteAheadLog(root) as reopened:
            records, _ = reopened.replay()
        assert len(records) == COMMITTED + 1


def test_corruption_at_every_byte_of_the_final_record(tmp_path):
    template = tmp_path / "template"
    segment = _build_journal(template)
    committed_end, total = _final_record_span(segment)
    blob = segment.read_bytes()
    for position in range(committed_end, total):
        root = tmp_path / f"flip-{position}"
        root.mkdir()
        damaged = bytearray(blob)
        damaged[position] ^= 0xFF
        (root / segment.name).write_bytes(bytes(damaged))
        _assert_committed_prefix_survives(root, expect_torn=True).close()


def test_full_final_record_intact_is_kept(tmp_path):
    # Control: with no damage at all, every record including the final
    # one survives — recovery only ever drops provably-torn bytes.
    root = tmp_path / "intact"
    _build_journal(root)
    with WriteAheadLog(root) as wal:
        records, report = wal.replay()
    assert len(records) == COMMITTED + 1
    assert report.torn == 0


def test_torn_counter_increments(tmp_path):
    root = tmp_path / "wal"
    segment = _build_journal(root)
    committed_end, total = _final_record_span(segment)
    segment.write_bytes(segment.read_bytes()[: total - 1])
    get_registry().reset()
    WriteAheadLog(root).close()
    assert get_registry().counter("wal.torn").value == 1


def test_empty_journal_recovers_cleanly(tmp_path):
    with WriteAheadLog(tmp_path / "wal") as wal:
        records, report = wal.replay()
    assert records == []
    assert report.segments == 0
    assert wal.last_seq == 0
