"""Persistent, content-keyed disk cache for built Scenario datasets.

Every dataset a ``Scenario`` builds is deterministic in (its name, the
scenario parameters, the seed, and the generator code), so the cache key
is a hash of exactly those four things — "fingerprint once, reuse
forever".  A warm cache turns the full build into a column load.

Entry layout (one file per dataset under the cache root)::

    <root>/<dataset>-<key prefix>.dat

    {"schema": "repro.cache/2", "dataset": ..., "key": ..., "kind": ...,
     "meta": {...}, "columns": [
        {"name": ..., "dtype": ..., "shape": [...],
         "nbytes": ..., "sha256": ...}, ...]}\\n
    <column 0 raw bytes><column 1 raw bytes>...

Columnar values (:class:`repro.columnar.Columnar`: the row batches of
the NDT, GPDNS and CHAOS campaigns, and the prefix2as, AS-relationship
and off-net archives) are stored as their raw numpy buffers: ``kind``
names the registered class, ``meta`` its JSON pools, and each column is
one contiguous little-endian buffer with its own SHA-256.  Loading is
near-zero-copy — ``np.frombuffer`` views straight into the file bytes —
so a warm start never materialises a single record object.  Everything
else (PeeringDB snapshots, the cable map, probe registries, panels,
degradation sentinels) uses ``"kind": "pickle"`` with the pickle bytes
as a single ``uint8`` column.

The same envelope holds the values derived from the datasets that
``Scenario.derive`` persists (:meth:`DatasetCache.store_derived`): one
``uint8`` column of JSON under ``"kind": "json"``, in files named
``derived-<key prefix>.dat``.  Their key (:meth:`DatasetCache.derived_key`)
covers the code that computes them instead of a generator's.

Load outcomes are deliberately asymmetric:

* **absent** — no file, a *foreign schema* (e.g. a leftover
  ``repro.cache/1`` entry after an upgrade), or a filename-prefix
  collision with a different full key.  These are plain misses: the
  rebuild overwrites the path and nothing is quarantined, so a format
  migration costs one cold build, not a warning storm.
* **corrupt** — a structurally damaged current-schema entry
  (unparseable header, truncation, checksum mismatch, unknown batch
  kind, unpicklable payload).  The entry is *quarantined* (renamed to
  ``<entry>.quarantined-<digest8>``, a content-digest suffix so repeated
  corruption of the same path never overwrites earlier evidence), the
  ``cache.corrupt`` counter is bumped and a one-line warning names the
  dataset and reason.

Writes go through a temp file and ``os.replace`` so concurrent builders
and crashes leave either the old entry or the new one, never a hybrid.

Higher-level obs wiring stays in the caller (``Scenario._build`` bumps
``scenario.cache.hit`` / ``.miss`` / ``.corrupt`` / ``.store``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.columnar import Columnar, UnknownBatchKind, batch_class
from repro.exec.dag import code_fingerprint, derived_fingerprint
from repro.obs import get_logger, get_registry

#: Envelope schema stamped into (and required from) every entry.
CACHE_SCHEMA = "repro.cache/2"

#: ``kind`` value for entries whose payload is a pickle blob instead of
#: registered column buffers.
PICKLE_KIND = "pickle"

#: ``kind`` value for a persisted derived value: a JSON document.
JSON_KIND = "json"

#: Hex digits of the key used in entry filenames (collisions across
#: different keys of the *same* dataset are resolved by the full key in
#: the header, which load() verifies).
_KEY_PREFIX_LEN = 16

#: Hex digits of the content digest suffixed to quarantined entries.
_QUARANTINE_DIGEST_LEN = 8

#: Age (seconds) past which an orphaned ``.*.tmp`` write is presumed
#: dead and swept; young temp files may belong to a live writer.
_TMP_SWEEP_AGE = 3600.0

_LOG = get_logger("repro.exec.cache")

_GC_PAUSE_LOCK = threading.Lock()
_GC_PAUSE_DEPTH = 0
_GC_WAS_ENABLED = True


@contextmanager
def _gc_paused():
    """Suspend the cyclic GC for the block (re-entrant, thread-safe).

    (Un)pickling a large object graph means allocating a burst of
    tracked objects, which triggers repeated full collections; none of
    those objects can be garbage mid-load.  A depth counter makes
    concurrent loads from pool workers share one pause instead of
    re-enabling the GC under each other.  Columnar entries never
    need this — their load is a header parse plus buffer views.
    """
    global _GC_PAUSE_DEPTH, _GC_WAS_ENABLED
    with _GC_PAUSE_LOCK:
        if _GC_PAUSE_DEPTH == 0:
            _GC_WAS_ENABLED = gc.isenabled()
            gc.disable()
        _GC_PAUSE_DEPTH += 1
    try:
        yield
    finally:
        with _GC_PAUSE_LOCK:
            _GC_PAUSE_DEPTH -= 1
            if _GC_PAUSE_DEPTH == 0 and _GC_WAS_ENABLED:
                gc.enable()


class CacheMiss:
    """Sentinel distinguishing "no entry" from a cached ``None``."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason  # "absent" or "corrupt"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheMiss({self.reason!r})"


@dataclass(frozen=True)
class CacheInfo:
    """What ``repro cache info`` reports."""

    path: Path
    entries: int
    total_bytes: int
    quarantined: int = 0

    def render(self) -> str:
        lines = [
            f"cache directory : {self.path}",
            f"entries         : {self.entries}",
            f"total size      : {self.total_bytes:,} bytes",
        ]
        if self.quarantined:
            lines.append(f"quarantined     : {self.quarantined}")
        return "\n".join(lines)


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``."""
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def _buffers(value: Columnar) -> list[tuple[dict[str, Any], np.ndarray]]:
    """(column spec, contiguous array) per column, in wire order."""
    out = []
    for name, array in value.columns().items():
        array = np.ascontiguousarray(array)
        spec = {
            "name": name,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "nbytes": int(array.nbytes),
            "sha256": hashlib.sha256(array.data).hexdigest(),
        }
        out.append((spec, array))
    return out


class DatasetCache:
    """Content-keyed columnar store under one directory.

    The directory is created lazily on the first store, so pointing
    ``--cache-dir`` at a read-only location still works for pure lookups.
    """

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.sweep_tmp()

    # -- keys ---------------------------------------------------------------

    def key(self, name: str, params: dict[str, object]) -> str:
        """The full content key for dataset *name* under *params*.

        SHA-256 over a canonical JSON document of (envelope schema,
        dataset name, sorted scenario params, generator code
        fingerprint).  Params include the seed; the code fingerprint
        covers the dataset's generator modules and those of every
        transitive dependency (see :func:`repro.exec.dag.code_fingerprint`).
        The schema is part of the document, so a codec bump rekeys every
        dataset at once.

        Ingest partition shards are named ``<dataset>@<partition>``
        (see :mod:`repro.ingest.overlay`); the code fingerprint is that
        of the base dataset, with the partition identity carried in
        *params* instead.
        """
        document = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "dataset": name,
                "params": params,
                "code": code_fingerprint(name.partition("@")[0]),
            },
            sort_keys=True,
        )
        return hashlib.sha256(document.encode()).hexdigest()

    def derived_key(
        self, name: str, params: dict[str, object], module: str
    ) -> str:
        """The full key of derived value *name* that *module* computes.

        SHA-256 over canonical JSON of (envelope schema, *name*, sorted
        scenario params, the code fingerprint of *module* and
        :data:`repro.exec.dag.DERIVED_MODULES`).  The datasets the value
        read are checked on load instead (see ``Scenario.derive``).
        """
        document = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "derived": name,
                "params": params,
                "code": derived_fingerprint(module),
            },
            sort_keys=True,
        )
        return hashlib.sha256(document.encode()).hexdigest()

    def entry_path(self, name: str, params: dict[str, object]) -> Path:
        """Where the entry for (*name*, *params*) lives on disk."""
        return self.root / f"{name}-{self.key(name, params)[:_KEY_PREFIX_LEN]}.dat"

    def _derived_path(self, key: str) -> Path:
        return self.root / f"derived-{key[:_KEY_PREFIX_LEN]}.dat"

    # -- load / store -------------------------------------------------------

    def load(self, name: str, params: dict[str, object]) -> object | CacheMiss:
        """The cached dataset, or a :class:`CacheMiss` telling why not.

        Foreign-schema entries and filename-prefix collisions are plain
        ``absent`` misses (rebuilt in place, no quarantine).  A
        structurally damaged current-schema entry is quarantined —
        renamed to ``<entry>.quarantined-<digest8>`` so the evidence
        survives — and reported as a ``corrupt`` miss; the caller
        rebuilds and overwrites the live path.
        """
        return self._load(self.entry_path(name, params), name, self.key(name, params))

    def load_derived(self, name: str, key: str) -> object | CacheMiss:
        """The JSON document stored under derived *key*, or a miss.

        Misses and quarantine work as in :meth:`load`.
        """
        return self._load(self._derived_path(key), name, key)

    def _load(self, path: Path, name: str, key: str) -> object | CacheMiss:
        try:
            blob = path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            return CacheMiss("absent")
        except OSError:
            return CacheMiss("corrupt")
        try:
            header_line, _, _ = blob.partition(b"\n")
            header = json.loads(header_line)
            schema = header.get("schema")
        except Exception as exc:
            self._quarantine(path, name, exc, blob)
            return CacheMiss("corrupt")
        if schema != CACHE_SCHEMA:
            # Foreign (e.g. v1) entry left over from before an upgrade:
            # a plain miss, not corruption — rebuild, don't quarantine.
            return CacheMiss("absent")
        if header.get("key") != key:
            # Filename-prefix collision with a different full key: the
            # entry belongs to another configuration, so it is absent
            # for this one; the rebuild overwrites it.
            return CacheMiss("absent")
        try:
            return self._decode(header, blob, len(header_line) + 1)
        except Exception as exc:
            self._quarantine(path, name, exc, blob)
            return CacheMiss("corrupt")

    def _decode(self, header: dict[str, Any], blob: bytes, base: int) -> object:
        """Revive the stored value from the entry bytes (views, no copy)."""
        kind = header.get("kind")
        specs = header.get("columns")
        if not isinstance(kind, str) or not isinstance(specs, list):
            raise ValueError("malformed header")
        payload_bytes = sum(int(spec["nbytes"]) for spec in specs)
        if base + payload_bytes != len(blob):
            raise ValueError("truncated payload")
        view = memoryview(blob)
        arrays: dict[str, np.ndarray] = {}
        offset = base
        for spec in specs:
            nbytes = int(spec["nbytes"])
            segment = view[offset : offset + nbytes]
            digest = hashlib.sha256(segment).hexdigest()
            if spec.get("sha256") != digest:
                raise ValueError(f"checksum mismatch in column {spec.get('name')!r}")
            count = int(np.prod(spec["shape"], dtype=np.int64))
            arrays[spec["name"]] = np.frombuffer(
                blob, dtype=np.dtype(spec["dtype"]), count=count, offset=offset
            ).reshape(spec["shape"])
            offset += nbytes
        if kind == PICKLE_KIND:
            with _gc_paused():
                return pickle.loads(arrays["payload"].tobytes())
        if kind == JSON_KIND:
            return json.loads(arrays["payload"].tobytes())
        try:
            cls = batch_class(kind)
        except UnknownBatchKind:
            raise ValueError(f"unknown batch kind {kind!r}") from None
        return cls.from_columns(header.get("meta", {}), arrays)

    def _quarantine(
        self, path: Path, name: str, exc: Exception, blob: bytes
    ) -> None:
        """Set a corrupt entry aside (rename, never delete) and report it.

        The quarantine name carries a short digest of the damaged bytes,
        so successive corruptions of the same entry each keep their own
        evidence file instead of overwriting the previous one.
        """
        reason = str(exc) or type(exc).__name__
        digest = hashlib.sha256(blob).hexdigest()[:_QUARANTINE_DIGEST_LEN]
        target = path.with_name(f"{path.name}.quarantined-{digest}")
        get_registry().counter("cache.corrupt").inc()
        print(
            f"warning: cache entry for dataset {name!r} is corrupt "
            f"({reason}); quarantined {target.name}",
            file=sys.stderr,
        )
        try:
            path.replace(target)
        except OSError:
            self._discard(path)  # rename failed; fall back to removal

    def store(
        self, name: str, params: dict[str, object], value: object
    ) -> Path | None:
        """Write (*name*, *params*) -> *value* atomically; returns the path.

        Columnar values are written as raw column buffers (their ``kind``
        and ``meta()`` in the header); everything else falls back to a
        single pickle column under ``"kind": "pickle"``.

        Storage failures (ENOSPC, read-only roots, permission walls)
        degrade to cache-off for this entry: the build's value is still
        perfectly good, so the error is absorbed — counted in
        ``cache.write_errors`` and logged as a ``cache.write_failed``
        warning — and ``None`` comes back instead of a path.
        """
        path = self.entry_path(name, params)
        if isinstance(value, Columnar):
            kind = value.kind
            meta = value.meta()
            columns = _buffers(value)
        else:
            kind = PICKLE_KIND
            meta = {}
            with _gc_paused():
                payload = np.frombuffer(
                    pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
                    dtype=np.uint8,
                )
            columns = _payload_column(payload)
        return self._write(path, name, self.key(name, params), kind, meta, columns)

    def store_derived(self, name: str, key: str, document: object) -> Path | None:
        """Write *document* as JSON under derived *key*; as :meth:`store`."""
        payload = np.frombuffer(
            json.dumps(document, separators=(",", ":")).encode(), dtype=np.uint8
        )
        columns = _payload_column(payload)
        return self._write(self._derived_path(key), name, key, JSON_KIND, {}, columns)

    def _write(
        self,
        path: Path,
        name: str,
        key: str,
        kind: str,
        meta: dict[str, Any],
        columns: list[tuple[dict[str, Any], np.ndarray]],
    ) -> Path | None:
        """Write one entry atomically; ``None`` on an absorbed write error."""
        header = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "dataset": name,
                "key": key,
                "kind": kind,
                "meta": meta,
                "columns": [spec for spec, _array in columns],
            },
            sort_keys=True,
        )
        tmp_name = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=f".{path.stem}-", suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(header.encode() + b"\n")
                for _spec, array in columns:
                    handle.write(array.data)
            os.replace(tmp_name, path)
        except OSError as exc:
            if tmp_name is not None:
                self._discard(Path(tmp_name))
            get_registry().counter("cache.write_errors").inc()
            _LOG.warning(
                "cache.write_failed",
                dataset=name,
                path=str(path),
                error=f"{type(exc).__name__}: {exc}",
            )
            return None
        except BaseException:
            if tmp_name is not None:
                self._discard(Path(tmp_name))
            raise
        return path

    # -- maintenance --------------------------------------------------------

    def sweep_tmp(self, max_age_seconds: float = _TMP_SWEEP_AGE) -> int:
        """Remove stale ``.*.tmp`` files left behind by killed writers.

        Atomic stores that die between ``mkstemp`` and ``os.replace``
        orphan their temp file; those can never become live entries, so
        they are pure leaked disk.  Swept on every cache construction.
        Files younger than *max_age_seconds* are left alone — they may
        belong to a writer that is still running.  Returns the count
        removed (also in the ``cache.tmp_swept`` counter).
        """
        if not self.root.is_dir():
            return 0
        cutoff = time.time() - max_age_seconds
        removed = 0
        for path in self.root.glob(".*.tmp"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                continue  # racing writer or sweeper; nothing leaked
        if removed:
            get_registry().counter("cache.tmp_swept").inc(removed)
            _LOG.warning(
                "cache.tmp_swept", directory=str(self.root), removed=removed
            )
        return removed

    def entries(self) -> Iterator[Path]:
        """Every entry file in the cache directory (legacy v1 included)."""
        if not self.root.is_dir():
            return
        yield from sorted(
            list(self.root.glob("*.dat")) + list(self.root.glob("*.pkl"))
        )

    def quarantined(self) -> Iterator[Path]:
        """Every quarantined (corrupt, set-aside) entry file."""
        if not self.root.is_dir():
            return
        yield from sorted(self.root.glob("*.quarantined*"))

    def info(self) -> CacheInfo:
        """Entry count and total size (``repro cache info``)."""
        entries = list(self.entries())
        return CacheInfo(
            path=self.root,
            entries=len(entries),
            total_bytes=sum(p.stat().st_size for p in entries),
            quarantined=len(list(self.quarantined())),
        )

    def clear(self) -> int:
        """Delete every entry (legacy and quarantined included).

        Quarantined and leftover v1 files count toward the total so
        ``repro cache clear`` genuinely empties the directory.
        """
        removed = 0
        for path in list(self.entries()) + list(self.quarantined()):
            self._discard(path)
            removed += 1
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


def _payload_column(payload: np.ndarray) -> list[tuple[dict[str, Any], np.ndarray]]:
    """The single-column layout of a pickle- or JSON-kind entry."""
    spec = {
        "name": "payload",
        "dtype": payload.dtype.str,
        "shape": list(payload.shape),
        "nbytes": int(payload.nbytes),
        "sha256": hashlib.sha256(payload.data).hexdigest(),
    }
    return [(spec, payload)]
