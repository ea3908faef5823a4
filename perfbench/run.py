"""Benchmark the three user journeys of the repro pipeline.

    python3 perfbench/run.py --workload report-warm --seed 1 --seconds 10 --trace 0

Workloads: ``report-warm``, ``serve-static``, ``ingest-append`` (see
``README.md``).  With ``--trace 0`` the run measures its journey
untraced and reports the end-to-end metrics; with ``--trace 1`` it runs
the same journey with spans on, then times every layer from outside and
reports the per-layer metrics.  Every output is checked; a wrong one
counts as a failed operation.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Human-readable numbers, spans and results go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from harness import SRC, STATE, Children, RunDir, median, split_cpus, tail, tail_quantile

#: A run that has not finished by now stops without printing a result.
RUN_BUDGET_S = 170

#: Set-ups per untraced run (``setup_s`` is their median); the traced
#: pass sets up once, since its end-to-end numbers are not gated.
SETUPS = 3

RESULTS = STATE / "results"


def end_to_end(journey) -> dict[str, float]:
    """Every end-to-end number of a journey, gated or not."""
    ops = journey.op_s
    return {
        "setup_s": median(journey.setup_s),
        "latency_p50_ms": median(ops) * 1e3,
        "latency_p99_ms": tail(ops) * 1e3,
        "throughput_rps": journey.completed / journey.timed_s,
        "peak_rss_mb": journey.peak_rss_mb,
    }


def result_metrics(values: dict[str, float], traced: bool) -> dict[str, dict]:
    """The result line's metrics, each with its unit: every per-layer
    metric when *traced*, else every end-to-end one.  A metric missing
    from *values* raises ``KeyError``."""
    from metrics import END_TO_END, PER_LAYER

    names = [(n, u) for n, u, _ in PER_LAYER] if traced else \
        [(n, u) for n, u, _, _ in END_TO_END]
    return {name: {"value": values[name], "unit": unit} for name, unit in names}


#: The name each workload's headline latency is known by.
ALIASES = {"report-warm": "report_s", "ingest-append": "visible_s"}


def summary_lines(workload: str, journey, values: dict[str, float]) -> list[str]:
    from metrics import END_TO_END, UNGATED

    n = len(journey.op_s)
    lines = [f"  {name:<16} {values[name]:>12.4f} {unit}"
             for name, unit, _, _ in END_TO_END]
    if workload in ALIASES:
        lines.append(f"  {ALIASES[workload]:<16} {values['latency_p50_ms'] / 1e3:>12.4f} s")
    lines.append("  not gated:")
    lines += [f"  {name:<16} {values[name]:>12.4f} {unit}" for name, unit in UNGATED]
    lines.append(f"  ({journey.completed} operations in {journey.timed_s:.2f} s, {n} behind the "
                 f"latencies; latency_p99_ms is "
                 f"p{tail_quantile(n) * 100:g}; setup_s is the median of "
                 f"{len(journey.setup_s)})")
    for key, value in sorted(journey.notes.items()):
        if isinstance(value, (int, float)):
            lines.append(f"  {key:<24} {value:.4f}")
    lines.append(f"  host steal while measuring: {journey.steal_share * 100:.2f}%")
    return lines


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))

    def out_of_time(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_BUDGET_S} s")

    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(RUN_BUDGET_S)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the journey, then (traced) the layer walk; the result line."""
    from checks import Expected, Tally, sha256
    from spans import Tracer
    from workloads import WORKLOADS, Run
    from inputs import ndt_batch

    bench_cpus, program_cpus = split_cpus()
    os.sched_setaffinity(0, bench_cpus)
    run_dir = RunDir(workload, seed, trace)
    children = Children(run_dir.child_env(), program_cpus)
    tracer = Tracer(f"{workload}/seed={seed}/trace={int(trace)}", enabled=trace)
    tally = Tally()
    expected = Expected.load()
    run = Run(workload, seed, seconds, 1 if trace else SETUPS, run_dir, children,
              tracer, tally, expected)
    try:
        tally.pinned_plane(expected)
        with tracer.span(workload):
            journey = WORKLOADS[workload](run)
        values = end_to_end(journey)
        served = journey.notes.pop("served", None)
        batches = journey.notes.pop("batches", None)
        if trace:
            from layers import walk

            with tracer.span("layers"):
                layer_values, derived = walk(run, batches or [ndt_batch(seed, 0)[1]])
            if served is not None:
                tally.check(
                    derived == {path: sha256(body) for path, body in served.items()},
                    "served plane after the last batch differs from apply_ingest's replay",
                )
    finally:
        children.stop_all()
        run_dir.remove()

    lines = [f"perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)}"]
    lines += summary_lines(workload, journey, values)
    lines.append(f"  operations: {tally.attempted} attempted, {tally.failed} failed")
    lines += [f"  FAILED: {reason}" for reason in tally.reasons]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "end_to_end": values, "setup_samples_s": journey.setup_s,
        "operations": len(journey.op_s), "steal_share": journey.steal_share,
        "notes": journey.notes, "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.reasons,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-trace{int(trace)}"
    if trace:
        lines += traced_lines(workload, values, tracer, RESULTS / f"{stem}-spans.json")
        record["per_layer"] = layer_values
    metrics = result_metrics(layer_values if trace else values, trace)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def traced_lines(workload: str, values: dict[str, float], tracer,
                 spans_path: Path) -> list[str]:
    """Traced end-to-end numbers beside the last untraced run's, and the
    spans with the most self time."""
    tracer.write(spans_path)
    lines = ["  traced vs untraced (last untraced run of this workload here):"]
    untraced_path = RESULTS / f"{workload}-trace0.json"
    untraced = (json.loads(untraced_path.read_text())["end_to_end"]
                if untraced_path.is_file() else None)
    for name, value in values.items():
        if untraced is None:
            lines.append(f"    {name:<16} traced {value:>12.4f}   untraced (none recorded)")
        else:
            overhead = (value / untraced[name] - 1.0) * 100 if untraced[name] else 0.0
            lines.append(f"    {name:<16} traced {value:>12.4f}   untraced "
                         f"{untraced[name]:>12.4f}   {overhead:+.1f}%")
    lines.append(f"  spans: {len(tracer.spans)} written to {spans_path}")
    lines.append("  most self time:")
    ranked = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])[:12]
    lines += [f"    {name:<32} {seconds:>9.3f} s" for name, seconds in ranked]
    return lines


if __name__ == "__main__":
    sys.exit(main())
