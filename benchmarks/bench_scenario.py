"""Benchmark the scenario build paths and emit ``BENCH_scenario.json``.

Times three ways of materialising the full 16-dataset world, each
through the one (serial) ``build_all()``:

* ``serial_cold``    -- every dataset from its generator, no cache.
* ``store``          -- the same build, also filling a disk cache.
* ``warm``           -- the same build served entirely from that cache.

The emitted artifact (schema ``repro.bench/1``) is the baseline future
perf PRs diff against; CI regenerates and uploads it on every push.

Usage::

    PYTHONPATH=src python benchmarks/bench_scenario.py \
        [--out BENCH_scenario.json] [--rounds 1]
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.core import Scenario
from repro.core.scenario import dataset_names
from repro.exec import DatasetCache
from repro.obs import get_registry

SCHEMA = "repro.bench/1"


def _run(rounds: int, factory) -> dict[str, float]:
    samples = []
    for _ in range(rounds):
        gc.collect()  # level the field: earlier paths' garbage is not ours
        samples.append(factory())
    return {
        "rounds": rounds,
        "min": round(min(samples), 4),
        "mean": round(sum(samples) / len(samples), 4),
    }


def bench(rounds: int) -> dict:
    """Time every build path; returns the artifact dict."""

    def serial_cold() -> float:
        scenario = Scenario()
        t0 = time.perf_counter()
        scenario.build_all()
        return time.perf_counter() - t0

    results = {"serial_cold": _run(rounds, serial_cold)}

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = DatasetCache(Path(tmp))

        def store() -> float:
            cache.clear()
            scenario = Scenario(cache=cache)
            t0 = time.perf_counter()
            scenario.build_all()
            return time.perf_counter() - t0

        results["store"] = _run(rounds, store)

        # Refill once, then time pure warm loads.
        cache.clear()
        Scenario(cache=cache).build_all()

        def warm() -> float:
            scenario = Scenario(cache=cache)
            t0 = time.perf_counter()
            scenario.build_all()
            return time.perf_counter() - t0

        results["warm"] = _run(rounds, warm)
        cache_bytes = cache.info().total_bytes

    registry = get_registry()
    per_dataset = {
        t.name[len("scenario.build."):]: round(t.snapshot().get("min", 0.0), 4)
        for t in registry.timers()
        if t.name.startswith("scenario.build.")
    }
    return {
        "schema": SCHEMA,
        "datasets": len(dataset_names()),
        "cache_bytes": cache_bytes,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "timings_seconds": results,
        "per_dataset_min_seconds": per_dataset,
        "speedup": {
            "warm_vs_serial": round(
                results["serial_cold"]["min"] / results["warm"]["min"], 2
            ),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_scenario.json")
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)

    artifact = bench(rounds=args.rounds)
    Path(args.out).write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    timings = artifact["timings_seconds"]
    print(f"serial cold   : {timings['serial_cold']['min']:.2f}s")
    print(f"store (cold+cache): {timings['store']['min']:.2f}s")
    print(f"warm cache    : {timings['warm']['min']:.2f}s")
    print(f"speedup warm {artifact['speedup']['warm_vs_serial']}x")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
