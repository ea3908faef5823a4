"""Columnar data plane: packed column values, and batches behind record views."""

from repro.columnar.batch import (
    ASN_MAX,
    ColumnBatch,
    Columnar,
    UnknownBatchKind,
    asn_array,
    batch_class,
    registered_kinds,
)

__all__ = [
    "ASN_MAX",
    "ColumnBatch",
    "Columnar",
    "UnknownBatchKind",
    "asn_array",
    "batch_class",
    "registered_kinds",
]
