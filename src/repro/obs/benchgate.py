"""Benchmark regression gate: fresh run vs committed baseline.

``repro bench gate`` compares a freshly produced benchmark artifact
against the baseline committed in the repo (``BENCH_scenario.json``,
``BENCH_serve.json``) and fails when any gated metric regresses past a
tolerance.  Both artifact families are understood:

* ``repro.bench/1`` (scenario builds) — the three build-path timings
  (serial cold, cold filling the cache, warm), where **lower is
  better**.
* ``repro.bench.serve/1`` (serving layer) — warm-phase throughput
  (**higher is better**) and warm latency percentiles (**lower is
  better**).  The cold phase is deliberately ungated: its first-contact
  cost is dominated by the machine's disk and is too noisy to gate on.
* ``repro.bench.serve/2`` (serving layer, keyed by engine) — the
  asyncio engine's warm throughput (**higher is better**) and warm
  p50/p99 (**lower is better**).  Warmup is excluded by the harness,
  so every gated number is steady-state.

The comparison is direction-aware and one-sided: an *improvement* of any
size passes.  A lower-is-better metric fails only when
``fresh > baseline * (1 + tolerance)``; higher-is-better only when
``fresh < baseline * (1 - tolerance)``.  The result is a ``repro.gate/1``
report listing every check with its ratio, so a CI failure shows exactly
which metric moved and by how much.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Schema identifier of the gate report.
SCHEMA = "repro.gate/1"

#: Default regression tolerance (±25%): wide enough for shared-runner
#: noise, tight enough to catch a 2x regression outright.
DEFAULT_TOLERANCE = 0.25

#: Metric direction markers.
LOWER = "lower_is_better"
HIGHER = "higher_is_better"


def _dig(doc: dict, *path: str) -> object:
    node: object = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def extract_gate_metrics(artifact: dict) -> dict[str, tuple[float, str]]:
    """The gated metrics of a bench artifact: name -> (value, direction).

    Raises:
        ValueError: if the artifact's schema is not a known bench schema.
    """
    schema = artifact.get("schema")
    metrics: dict[str, tuple[float, str]] = {}
    if schema == "repro.bench/1":
        for path_name in ("serial_cold", "store", "warm"):
            value = _dig(artifact, "timings_seconds", path_name, "min")
            if isinstance(value, (int, float)):
                metrics[f"timings_seconds.{path_name}.min"] = (float(value), LOWER)
    elif schema == "repro.bench.serve/1":
        rps = _dig(artifact, "phases", "warm", "requests_per_second")
        if isinstance(rps, (int, float)):
            metrics["phases.warm.requests_per_second"] = (float(rps), HIGHER)
        for quantile in ("p50", "p95"):
            value = _dig(artifact, "phases", "warm", "latency_ms", quantile)
            if isinstance(value, (int, float)):
                metrics[f"phases.warm.latency_ms.{quantile}"] = (float(value), LOWER)
    elif schema == "repro.bench.serve/2":
        rps = _dig(artifact, "engines", "asyncio", "warm", "requests_per_second")
        if isinstance(rps, (int, float)):
            metrics["engines.asyncio.warm.requests_per_second"] = (
                float(rps),
                HIGHER,
            )
        for quantile in ("p50", "p99"):
            value = _dig(
                artifact, "engines", "asyncio", "warm", "latency_ms", quantile
            )
            if isinstance(value, (int, float)):
                metrics[f"engines.asyncio.warm.latency_ms.{quantile}"] = (
                    float(value),
                    LOWER,
                )
    else:
        raise ValueError(f"not a gateable bench artifact (schema={schema!r})")
    if not metrics:
        raise ValueError(f"bench artifact ({schema}) carries no gated metrics")
    return metrics


def compare(
    baseline: dict, fresh: dict, tolerance: float = DEFAULT_TOLERANCE
) -> dict:
    """Gate *fresh* against *baseline*; returns the ``repro.gate/1`` report.

    Raises:
        ValueError: on mismatched schemas, a bad tolerance, or an
            unrecognised artifact.
    """
    if not 0.0 < tolerance < 10.0:
        raise ValueError(f"tolerance must be in (0, 10): {tolerance}")
    if baseline.get("schema") != fresh.get("schema"):
        raise ValueError(
            f"schema mismatch: baseline {baseline.get('schema')!r} "
            f"vs fresh {fresh.get('schema')!r}"
        )
    base_metrics = extract_gate_metrics(baseline)
    fresh_metrics = extract_gate_metrics(fresh)

    checks = []
    for name, (base_value, direction) in sorted(base_metrics.items()):
        entry = fresh_metrics.get(name)
        if entry is None:
            checks.append(
                {
                    "metric": name,
                    "direction": direction,
                    "baseline": base_value,
                    "fresh": None,
                    "ratio": None,
                    "ok": False,
                    "detail": "metric missing from fresh artifact",
                }
            )
            continue
        fresh_value = entry[0]
        if base_value <= 0:
            # A zero baseline (e.g. sub-resolution timing) cannot express a
            # ratio; pass it rather than dividing by zero.
            ok, ratio, detail = True, None, "baseline is zero; skipped"
        else:
            ratio = fresh_value / base_value
            if direction == LOWER:
                ok = ratio <= 1.0 + tolerance
            else:
                ok = ratio >= 1.0 - tolerance
            detail = "ok" if ok else (
                f"regressed {ratio:.2f}x vs baseline "
                f"(tolerance ±{tolerance:.0%})"
            )
        checks.append(
            {
                "metric": name,
                "direction": direction,
                "baseline": base_value,
                "fresh": fresh_value,
                "ratio": round(ratio, 4) if ratio is not None else None,
                "ok": ok,
                "detail": detail,
            }
        )

    failed = [c for c in checks if not c["ok"]]
    return {
        "schema": SCHEMA,
        "bench_schema": baseline.get("schema"),
        "tolerance": tolerance,
        "checks": checks,
        "failed": len(failed),
        "passed": not failed,
    }


def load_artifact(path: Path | str) -> dict:
    """Read a bench artifact file, insisting it is a JSON object."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    return doc


def render_gate(report: dict) -> str:
    """The terminal table behind ``repro bench gate``."""
    lines = [
        "bench gate: {bench_schema} at tolerance ±{tol:.0%}".format(
            bench_schema=report["bench_schema"], tol=report["tolerance"]
        )
    ]
    width = max(len(c["metric"]) for c in report["checks"])
    for check in report["checks"]:
        status = "PASS" if check["ok"] else "FAIL"
        fresh = "missing" if check["fresh"] is None else f"{check['fresh']:.4g}"
        ratio = "-" if check["ratio"] is None else f"{check['ratio']:.2f}x"
        lines.append(
            f"  {status}  {check['metric'].ljust(width)}  "
            f"baseline {check['baseline']:.4g}  fresh {fresh}  {ratio}"
        )
    verdict = "PASS" if report["passed"] else f"FAIL ({report['failed']} regressed)"
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines)


def write_gate_json(path: Path | str, report: dict) -> Path:
    """Write the gate report (CI uploads it on failure); returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
