"""Packed column values: the vectorized data plane's core abstraction.

A :class:`Columnar` value holds one dataset as a handful of numpy
arrays plus a small JSON-safe ``meta`` dict (string pools, campaign
constants).  That is the whole contract of the ``repro.cache/2``
codec: every concrete class declares a ``kind`` string
(``"mlab.ndt/1"``) and registers itself on subclassing, and
:func:`batch_class` resolves kinds back to classes, which is how the
codec revives a value from its on-disk column buffers without pickle.
Pickling a columnar value pickles the same (meta, columns) pair.

A :class:`ColumnBatch` is the row-shaped kind: its columns are parallel
and it behaves like the ``list[Record]`` it replaced — ``len``,
indexing, slicing and iteration all yield the original record
dataclasses, built lazily as thin views over the columns — while the
hot paths (aggregations, the disk cache codec) read the arrays
directly and never materialise a single record object.  Values with
another shape (the month-keyed BGP archives) subclass
:class:`Columnar` directly and keep their own container API.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from importlib import import_module
from typing import Any, ClassVar, Iterator

import numpy as np

#: kind string -> concrete columnar class, filled by ``__init_subclass__``.
_REGISTRY: dict[str, type["Columnar"]] = {}

#: Modules that define columnar classes; imported on a registry miss so
#: the cache codec can revive a kind without the caller importing it first.
_BATCH_MODULES = (
    "repro.mlab.columns",
    "repro.atlas.columns",
    "repro.bgp.archive",
    "repro.offnets.records",
)


#: ASNs are 32-bit (RFC 6793); ASN columns are ``uint32``.
ASN_MAX = 2**32 - 1


def asn_array(values: list[int]) -> np.ndarray:
    """*values* as a ``uint32`` ASN column.

    Raises:
        ValueError: a value lies outside ``0..ASN_MAX``.
    """
    array = np.array(values, dtype=np.int64)
    if array.size and (array.min() < 0 or array.max() > ASN_MAX):
        raise ValueError(f"ASN outside the 32-bit range 0..{ASN_MAX}")
    return array.astype(np.uint32)


class UnknownBatchKind(KeyError):
    """No registered :class:`Columnar` subclass for a kind string."""


def batch_class(kind: str) -> type["Columnar"]:
    """The columnar class registered under *kind*.

    Lazily imports the known column modules on a first miss, so codec
    loads work regardless of what the process imported before.
    """
    cls = _REGISTRY.get(kind)
    if cls is None:
        for module in _BATCH_MODULES:
            import_module(module)
        cls = _REGISTRY.get(kind)
    if cls is None:
        raise UnknownBatchKind(kind)
    return cls


def registered_kinds() -> list[str]:
    """Every registered kind string, sorted (for tests/debugging)."""
    for module in _BATCH_MODULES:
        import_module(module)
    return sorted(_REGISTRY)


class Columnar:
    """Base class for values the cache codec stores as raw columns.

    Subclasses set :attr:`kind`, a ``COLUMNS`` tuple naming their array
    attributes in canonical (wire) order, and implement ``meta()`` and
    ``from_columns()``.
    """

    #: Registry key; also the codec's on-disk ``kind`` field.
    kind: ClassVar[str] = ""
    #: Attribute names of the column arrays, in wire order.
    COLUMNS: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.kind:
            existing = _REGISTRY.get(cls.kind)
            if existing is not None and existing is not cls:
                raise ValueError(
                    f"batch kind {cls.kind!r} already registered by {existing!r}"
                )
            _REGISTRY[cls.kind] = cls

    # -- subclass contract ---------------------------------------------------

    def meta(self) -> dict[str, Any]:
        """JSON-safe metadata (string pools, constants)."""
        raise NotImplementedError

    @classmethod
    def from_columns(
        cls, meta: dict[str, Any], columns: dict[str, np.ndarray]
    ) -> "Columnar":
        """Rebuild a value from codec-loaded (meta, column arrays)."""
        raise NotImplementedError

    # -- shared plumbing -----------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """Column name -> array, in :attr:`COLUMNS` order."""
        return {name: getattr(self, name) for name in self.COLUMNS}

    def __reduce__(self) -> tuple[Any, ...]:
        # Pickle the codec form only: never an index a query built lazily.
        return (type(self).from_columns, (self.meta(), self.columns()))

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, Columnar):
            return NotImplemented
        return (
            type(other) is type(self)
            and other.meta() == self.meta()
            and all(
                np.array_equal(a, b)
                for a, b in zip(self.columns().values(), other.columns().values())
            )
        )

    __hash__ = None  # type: ignore[assignment]


class ColumnBatch(Columnar, Sequence):
    """Base class for row-shaped column containers.

    On top of the :class:`Columnar` contract, subclasses implement
    ``_record()``; every column holds one entry per row.
    """

    def _record(self, index: int) -> Any:
        """The record-dataclass view of row *index* (0 <= index < len)."""
        raise NotImplementedError

    def __len__(self) -> int:
        if not self.COLUMNS:
            return 0
        return len(getattr(self, self.COLUMNS[0]))

    def __getitem__(self, index: "int | slice") -> Any:
        if isinstance(index, slice):
            return [self._record(i) for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"row {index} out of range for {len(self)} rows")
        return self._record(i)

    def __iter__(self) -> Iterator[Any]:
        return (self._record(i) for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple)):
            # Record-level equality against the list the batch replaced.
            return len(other) == len(self) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return super().__eq__(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rows={len(self)})"
