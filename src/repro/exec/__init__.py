"""repro.exec: the dataset dependency graph and a persistent dataset cache.

* :mod:`repro.exec.dag` -- the explicit dependency graph over
  ``Scenario`` datasets.  Most datasets are roots; the three derived ones
  (``chaos_observations``, ``offnets``, ``gpdns_traceroutes``) declare
  their parents here, so ``Scenario.inherit`` can take datasets in
  dependency order and a cache key can fold in the code of everything a
  dataset was derived from.
* :mod:`repro.exec.cache` -- a content-keyed on-disk cache
  (``~/.cache/repro`` by default) that round-trips built datasets through
  a versioned, checksummed envelope: raw column buffers for columnar
  values, a pickle for the rest.  Corrupt entries are quarantined
  (renamed, never trusted) and rebuilt.

Every build is serial: ``Scenario.build_all()`` materialises the
datasets one after another (threads only contend for the GIL over
these pure-Python generators; see ``docs/PERFORMANCE.md``).

See ``docs/PERFORMANCE.md`` for the build DAG, the cache key scheme, and
invalidation rules.
"""

from repro.exec.cache import (
    CACHE_SCHEMA,
    CacheInfo,
    DatasetCache,
    default_cache_dir,
)
from repro.exec.dag import (
    DATASET_DEPS,
    code_fingerprint,
    dependencies,
    topological_order,
    transitive_dependencies,
    validate_graph,
)

__all__ = [
    "CACHE_SCHEMA",
    "CacheInfo",
    "DATASET_DEPS",
    "DatasetCache",
    "code_fingerprint",
    "default_cache_dir",
    "dependencies",
    "topological_order",
    "transitive_dependencies",
    "validate_graph",
]
