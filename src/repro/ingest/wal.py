"""The ``repro.wal/1`` write-ahead journal behind ``POST /v1/ingest``.

Every accepted append batch is journaled *before* it is acknowledged:
the record is framed, CRC-checked, written to the current segment, and
``fsync``'d — only then does the caller see a receipt.  A segment's
first append also fsyncs the journal directory, so the new file's entry
is as durable as the batch in it.  A crash at any later point (apply,
rebuild, serve swap) therefore never loses an acked batch: startup
replay re-reads the journal and re-derives the exact same ledger.

On-disk layout (one directory per journal)::

    <root>/wal-00000001.seg        # segment files, rotated by size
    <root>/wal-00000002.seg
    <root>/checkpoint.json         # last applied seq + fingerprints
    <root>/journal.lock            # flock'd while a journal is open

One open :class:`WriteAheadLog` owns the directory: construction takes
an exclusive ``flock`` on ``journal.lock`` before it scans, and a
second opener — in this process or another — gets
:class:`WalLockedError` instead of acking sequence numbers the first
already acked or truncating the record it is writing.  :meth:`close`
releases the lock.

Each record is framed as an 8-byte little-endian header — ``u32 payload
length`` then ``u32 CRC32(payload)`` — followed by the payload, a
canonical JSON document::

    {"schema": "repro.wal/1", "seq": N, "format": "ndt",
     "key": "<sha256 of format + content>", "lines": [...], "meta": {}}

The ``key`` is a content-hash idempotency key: appending the same batch
twice (a client retry after a lost ack, a replayed journal) is a no-op
that returns the original sequence number.

Torn tails are tolerated by construction: a record is only ever damaged
by a crash mid-write, which means it was never fsync'd-and-acked, so
replay stops at the first bad frame of the *final* segment, truncates
the torn bytes (so later appends start from a clean offset), and keeps
every committed record before it.  Damage in a non-final segment is a
different beast — committed records would follow the hole — so that
raises :class:`WalCorruptionError` instead of silently dropping data.

Observability: ``wal.appends`` / ``wal.duplicates`` / ``wal.bytes``
count the append path; ``wal.replayed`` / ``wal.replay.duplicates`` /
``wal.torn`` the recovery path; torn tails also emit a structured
``wal.torn_tail`` warning naming the segment and offset.
"""

from __future__ import annotations

import fcntl
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Iterator

from repro.obs import get_logger, get_registry

#: Schema identifier stamped into every journal record and checkpoint.
WAL_SCHEMA = "repro.wal/1"

#: Frame header: u32 payload length, u32 CRC32(payload), little-endian.
_HEADER = struct.Struct("<II")

#: Per-record payload ceiling; a length field above this is damage, not
#: a record (keeps a corrupted length from provoking a giant read).
_MAX_PAYLOAD = 64 * 1024 * 1024

#: Default segment rotation threshold.
DEFAULT_SEGMENT_BYTES = 1024 * 1024

_CHECKPOINT_NAME = "checkpoint.json"

#: The file a journal flocks; it does not match ``wal-*.seg``.
_LOCK_NAME = "journal.lock"

_LOG = get_logger("repro.ingest.wal")


class WalCorruptionError(RuntimeError):
    """Damage in a non-final segment: committed records follow the hole."""


class WalLockedError(RuntimeError):
    """Another open journal holds the directory's lock."""


def idempotency_key(format: str, lines: tuple[str, ...] | list[str]) -> str:
    """Content-hash key of one append batch (format + canonical lines)."""
    digest = sha256()
    digest.update(format.encode("utf-8"))
    for line in lines:
        digest.update(b"\0")
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One committed journal record."""

    seq: int
    format: str
    key: str
    lines: tuple[str, ...]
    meta: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class AppendResult:
    """What :meth:`WriteAheadLog.append` acknowledges."""

    seq: int
    key: str
    duplicate: bool


@dataclass
class ReplayReport:
    """What startup recovery found in the journal."""

    records: int = 0
    duplicates: int = 0
    torn: int = 0
    truncated_bytes: int = 0
    segments: int = 0


class WriteAheadLog:
    """Append-only journal with segment rotation and torn-tail recovery.

    Construction locks the directory, then scans it and replays
    existing segments into the in-memory dedupe index (the records
    themselves are handed to the caller via :meth:`replay`), so a
    reopened journal immediately refuses duplicate keys and continues
    the sequence numbering.

    Raises:
        WalLockedError: another open journal holds the directory.
        WalCorruptionError: a non-final segment is damaged.
    """

    def __init__(
        self,
        root: Path | str,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: bool = True,
    ) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True)
        except FileExistsError:
            pass
        else:
            if fsync:
                _fsync_directory(self.root.parent)
        self.max_segment_bytes = max_segment_bytes
        self.fsync = fsync
        self._keys: dict[str, int] = {}
        self._next_seq = 1
        self._handle = None
        self._segment_index = 0
        self._segment_size = 0
        self._records: list[WalRecord] = []
        self._lock = _lock_directory(self.root)
        try:
            self._report = self._scan()
        except BaseException:
            self.close()
            raise

    # -- recovery ------------------------------------------------------------

    def segments(self) -> list[Path]:
        """Segment files, journal order."""
        return sorted(self.root.glob("wal-*.seg"))

    def replay(self) -> tuple[list[WalRecord], ReplayReport]:
        """The committed records (deduplicated, seq order) + scan report."""
        return list(self._records), self._report

    def _scan(self) -> ReplayReport:
        report = ReplayReport()
        registry = get_registry()
        segments = self.segments()
        report.segments = len(segments)
        for position, segment in enumerate(segments):
            final = position == len(segments) - 1
            blob = segment.read_bytes()
            valid_end = self._scan_segment(segment, blob, final, report)
            if valid_end < len(blob):
                # Torn tail of the final segment: the damaged bytes were
                # never acked (ack happens only after fsync), so truncate
                # them away and let the next append start clean.
                report.torn += 1
                report.truncated_bytes += len(blob) - valid_end
                registry.counter("wal.torn").inc()
                _LOG.warning(
                    "wal.torn_tail",
                    segment=segment.name,
                    offset=valid_end,
                    dropped_bytes=len(blob) - valid_end,
                )
                with open(segment, "r+b") as handle:
                    handle.truncate(valid_end)
        if segments:
            self._segment_index = int(segments[-1].stem.split("-")[1])
            self._segment_size = segments[-1].stat().st_size
        if report.records:
            registry.counter("wal.replayed").inc(report.records)
        if report.duplicates:
            registry.counter("wal.replay.duplicates").inc(report.duplicates)
        return report

    def _scan_segment(
        self, segment: Path, blob: bytes, final: bool, report: ReplayReport
    ) -> int:
        """Absorb *blob*'s valid frames; returns the last valid offset."""
        offset = 0
        for record, end in _frames(segment, blob, final):
            if record.key in self._keys:
                report.duplicates += 1
            else:
                self._keys[record.key] = record.seq
                self._records.append(record)
                report.records += 1
            self._next_seq = max(self._next_seq, record.seq + 1)
            offset = end
        return offset

    # -- append --------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Highest committed sequence number (0 when empty)."""
        return self._next_seq - 1

    def seq_for(self, key: str) -> int | None:
        """The committed seq of *key*, or None if never journaled."""
        return self._keys.get(key)

    def append(
        self,
        format: str,
        lines: list[str] | tuple[str, ...],
        meta: dict[str, str] | None = None,
    ) -> AppendResult:
        """Journal one batch durably; duplicate content is a no-op.

        The write is flushed and ``fsync``'d before this returns, so a
        caller that acks on return has at-least-once semantics: the
        batch survives any subsequent crash.
        """
        registry = get_registry()
        lines = tuple(lines)
        key = idempotency_key(format, lines)
        existing = self._keys.get(key)
        if existing is not None:
            registry.counter("wal.duplicates").inc()
            return AppendResult(seq=existing, key=key, duplicate=True)
        seq = self._next_seq
        payload = json.dumps(
            {
                "schema": WAL_SCHEMA,
                "seq": seq,
                "format": format,
                "key": key,
                "lines": list(lines),
                "meta": dict(meta or {}),
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        handle = self._segment_handle(len(frame))
        handle.write(frame)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        self._segment_size += len(frame)
        self._next_seq = seq + 1
        self._keys[key] = seq
        self._records.append(
            WalRecord(seq=seq, format=format, key=key, lines=lines, meta=dict(meta or {}))
        )
        registry.counter("wal.appends").inc()
        registry.counter("wal.bytes").inc(len(frame))
        return AppendResult(seq=seq, key=key, duplicate=False)

    def _segment_handle(self, incoming: int):
        """The current segment's file handle, rotating by size first."""
        rotate = (
            self._handle is not None
            and self._segment_size > 0
            and self._segment_size + incoming > self.max_segment_bytes
        )
        if self._handle is None or rotate:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            if rotate or self._segment_index == 0:
                self._segment_index += 1
                self._segment_size = 0
            path = self.root / f"wal-{self._segment_index:08d}.seg"
            created = not path.exists()
            self._handle = open(path, "ab")
            if created and self.fsync:
                # The new file's directory entry must be as durable as
                # the batch about to be acked into it.
                _fsync_directory(self.root)
            self._segment_size = path.stat().st_size
        return self._handle

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the open segment and release the directory's lock."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._lock is not None:
            self._lock.close()  # closing the descriptor drops the flock
            self._lock = None

    # -- checkpoint ----------------------------------------------------------

    def checkpoint_path(self) -> Path:
        return self.root / _CHECKPOINT_NAME

    def write_checkpoint(self, applied_seq: int, **extra: object) -> Path:
        """Atomically record that everything through *applied_seq* applied."""
        document = {
            "schema": WAL_SCHEMA,
            "applied_seq": applied_seq,
            **extra,
        }
        path = self.checkpoint_path()
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(
            json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
        get_registry().counter("wal.checkpoints").inc()
        return path

    def read_checkpoint(self) -> dict | None:
        """The last committed checkpoint, or None (absent/damaged)."""
        try:
            document = json.loads(self.checkpoint_path().read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(document, dict) or document.get("schema") != WAL_SCHEMA:
            return None
        return document


def _lock_directory(root: Path):
    """An open handle holding the exclusive flock on *root*'s lock file."""
    handle = open(root / _LOCK_NAME, "ab")
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        handle.close()
        raise WalLockedError(
            f"journal {root} is already open (lock held on {_LOCK_NAME})"
        ) from None
    return handle


def _fsync_directory(path: Path) -> None:
    """Make *path*'s entries (a created file or directory) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _frames(
    segment: Path, blob: bytes, final: bool
) -> Iterator[tuple[WalRecord, int]]:
    """Valid ``(record, end_offset)`` frames of one segment, in order.

    Stops cleanly at the first torn/damaged frame of the final segment;
    raises :class:`WalCorruptionError` for damage anywhere else.
    """
    offset = 0
    size = len(blob)
    while offset < size:
        reason = None
        end = offset
        if size - offset < _HEADER.size:
            reason = "truncated frame header"
        else:
            length, crc = _HEADER.unpack_from(blob, offset)
            start = offset + _HEADER.size
            if length > _MAX_PAYLOAD:
                reason = f"implausible payload length {length}"
            elif start + length > size:
                reason = "truncated payload"
            else:
                payload = blob[start : start + length]
                if zlib.crc32(payload) != crc:
                    reason = "CRC mismatch"
                else:
                    try:
                        document = json.loads(payload)
                        if document.get("schema") != WAL_SCHEMA:
                            raise ValueError(
                                f"foreign schema {document.get('schema')!r}"
                            )
                        record = WalRecord(
                            seq=int(document["seq"]),
                            format=str(document["format"]),
                            key=str(document["key"]),
                            lines=tuple(document["lines"]),
                            meta=dict(document.get("meta") or {}),
                        )
                    except (KeyError, TypeError, ValueError) as exc:
                        reason = f"bad record payload: {exc}"
                    else:
                        end = start + length
        if reason is not None:
            if not final:
                raise WalCorruptionError(
                    f"damaged frame in non-final segment {segment.name} "
                    f"at offset {offset}: {reason}"
                )
            return  # torn tail; caller truncates past the last valid offset
        yield record, end
        offset = end
