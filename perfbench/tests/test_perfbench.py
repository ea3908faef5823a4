"""Tests of the benchmark itself: metric names, checks and seeded inputs.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The end-to-end test runs one short report-warm pass (about 20 s); the
rest use tiny synthetic inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import Expected, Tally, plane_fingerprint, sha256  # noqa: E402
from harness import tail, tail_quantile  # noqa: E402
from inputs import (  # noqa: E402
    BATCH_ROWS,
    INGEST_COUNTRIES,
    REVALIDATE_SHARE,
    ndt_batch,
    request_sequence,
)
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import end_to_end, result_metrics  # noqa: E402
from workloads import Journey, LoopResult  # noqa: E402


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_metrics_the_code_emits():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == {
        "report-warm", "serve-static", "ingest-append"}


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    journey = Journey(setup_s=[3.0, 2.0, 4.0], op_s=[0.1, 0.3, 0.2], timed_s=0.6,
                      peak_rss_mb=100.0, steal_share=0.0)
    values = end_to_end(journey)
    emitted = result_metrics(values, traced=False)
    assert {n: m["unit"] for n, m in emitted.items()} == {n: u for n, u, _, _ in END_TO_END}
    assert emitted["setup_s"]["value"] == 3.0
    assert emitted["latency_p50_ms"]["value"] == pytest.approx(200.0)
    assert all(m["value"] > 0 for m in emitted.values())
    # Measured and printed, though not gated.
    assert values["throughput_rps"] == pytest.approx(5.0)
    assert values["latency_p99_ms"] == pytest.approx(200.0)


def test_throughput_counts_ungated_operations_too():
    # ingest-append gates its first round only; later rounds still count.
    journey = Journey(setup_s=[2.0], op_s=[12.0], timed_s=20.0, peak_rss_mb=100.0,
                      steal_share=0.0, completed=2)
    values = end_to_end(journey)
    assert values["latency_p50_ms"] == pytest.approx(12000.0)
    assert values["throughput_rps"] == pytest.approx(0.1)


def test_loops_on_several_servers_merge_into_one():
    a = LoopResult([0.1, 0.2], 1.0, 2, 1, 0.5, 0.25, 2, 1, 0)
    b = LoopResult([0.3], 2.0, 1, 0, 0.25, 0.5, 1, 0, 0)
    merged = LoopResult.merge([a, b])
    assert merged == LoopResult([0.1, 0.2, 0.3], 3.0, 3, 1, 0.75, 0.75, 3, 1, 0)
    assert merged.notes()["server_cpu_us_per_req"] == pytest.approx(0.25e6)


def test_a_missing_per_layer_metric_is_an_error():
    values = {name: 1.0 for name, _, _ in PER_LAYER}
    emitted = result_metrics(values, traced=True)
    assert {n: m["unit"] for n, m in emitted.items()} == {n: u for n, u, _ in PER_LAYER}
    del values["seal_s"]
    with pytest.raises(KeyError):
        result_metrics(values, traced=True)


def test_tail_is_p99_only_when_ten_samples_lie_beyond_it():
    assert tail_quantile(100_000) == 0.99
    assert tail_quantile(500) == pytest.approx(0.98)
    assert tail_quantile(6) == 0.5
    samples = [float(i) for i in range(1, 7)]
    assert tail(samples) == 3.5  # the median, for a six-sample run


def _tiny_plane() -> tuple[Expected, dict[str, bytes]]:
    bodies = {"/v1/report": b"report", "/v1/exhibit/fig11": b"fig11",
              "/v1/exhibits": b"catalog"}
    artifacts = {path: sha256(body) for path, body in bodies.items()}
    expected = Expected(
        report_stdout_sha256=sha256(b"stdout"),
        plane_fingerprint=plane_fingerprint(artifacts),
        artifacts=artifacts,
        ingest_changes=("/v1/exhibit/fig11", "/v1/report"),
    )
    return expected, bodies


def test_matching_outputs_pass():
    expected, bodies = _tiny_plane()
    tally = Tally()
    tally.pinned_plane(expected)
    tally.plane(bodies, expected)
    assert (tally.attempted, tally.failed) == (5, 0)


def test_a_tampered_expected_output_counts_as_a_failure():
    expected, bodies = _tiny_plane()
    tampered = dict(expected.artifacts, **{"/v1/exhibits": sha256(b"other")})
    tally = Tally()
    tally.pinned_plane(replace(expected, artifacts=tampered))
    tally.plane(bodies, replace(expected, artifacts=tampered))
    assert tally.failed == 2
    assert any("/v1/exhibits differs from base" in r for r in tally.reasons)


def test_an_unchanged_artifact_in_the_changed_set_is_a_failure():
    expected, bodies = _tiny_plane()
    changed = dict(bodies, **{"/v1/report": b"new report"})
    tally = Tally()
    tally.plane(changed, expected, changed=expected.ingest_changes)
    assert tally.failed == 1
    assert tally.reasons == ["plane: /v1/exhibit/fig11 did not change"]


def test_pinned_expected_outputs_are_self_consistent():
    expected = Expected.load()
    tally = Tally()
    assert tally.pinned_plane(expected)
    assert len(expected.artifacts) == 59
    assert expected.report_stdout_sha256.startswith("f094f6b573ae52db")
    assert expected.report_sha256.startswith("54585326becc")
    assert expected.plane_fingerprint.startswith("cb3ddc24cb58")


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert request_sequence(7, 59, 4096) == request_sequence(7, 59, 4096)
    assert request_sequence(7, 59, 4096) != request_sequence(8, 59, 4096)
    assert [ndt_batch(7, i) for i in range(4)] == [ndt_batch(7, i) for i in range(4)]
    assert ndt_batch(7, 0) != ndt_batch(8, 0)
    assert ndt_batch(7, 0) != ndt_batch(7, 1)


def test_request_mix_is_uniform_with_a_fixed_revalidation_share():
    sequence = request_sequence(3, 59)
    counts = [0] * 59
    for index, _ in sequence:
        counts[index] += 1
    assert min(counts) > 0.8 * len(sequence) / 59
    share = sum(revalidate for _, revalidate in sequence) / len(sequence)
    assert share == pytest.approx(REVALIDATE_SHARE, abs=0.01)


def test_batches_land_in_fig11_partitions_above_earlier_batches():
    for seed in range(20):
        floor = 0.0
        for index in range(4):
            country, body = ndt_batch(seed, index)
            rows = [json.loads(line) for line in body.decode().splitlines()]
            assert country in INGEST_COUNTRIES
            assert {row["client_country"] for row in rows} == {country}
            assert all(row["date"].startswith("2023-07-") for row in rows)
            assert len(rows) == BATCH_ROWS
            speeds = [row["download_mbps"] for row in rows]
            assert min(speeds) >= floor
            floor = max(speeds)


def test_batch_size_is_the_scenarios_monthly_sample_count():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.scenario import Scenario

    assert BATCH_ROWS == Scenario.ndt_tests_per_month


def test_render_spans_time_handler_and_envelope_then_restore_them():
    sys.path.insert(0, str(ROOT / "src"))
    from layers import RenderSpans
    from repro.serve import artifacts, handlers
    from spans import Tracer

    originals = (handlers.handle_exhibits, artifacts.envelope_bytes)
    tracer = Tracer("test", enabled=True)
    with RenderSpans(tracer, "seal") as renders:
        artifacts.envelope_bytes(handlers.handle_exhibits(None))
    assert renders.count == 1
    assert len(tracer.durations("seal.catalog")) == 2  # handler, then envelope
    assert renders.seconds("catalog") > 0
    assert (handlers.handle_exhibits, artifacts.envelope_bytes) == originals


def test_short_report_warm_run_prints_a_checked_result():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "report-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert {n: m["unit"] for n, m in result["metrics"].items()} \
        == {n: u for n, u, _, _ in END_TO_END}


def test_without_the_program_sources_the_run_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "perfbench" / "expected.json").write_bytes(
        (BENCH / "expected.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
