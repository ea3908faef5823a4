"""The ingest-crash drill: SIGKILL a real ingest run, prove convergence.

The full three-point drill runs in CI (see the ingest-crash job); the
test suite exercises one point end-to-end — real subprocesses, a real
SIGKILL, a real torn journal — plus the report/render contract, to keep
the suite's wall-clock bounded.
"""

import json
import subprocess
import sys

from repro.ingest import drill
from repro.ingest.drill import (
    CHILD_TIMEOUT_S,
    DRILL_MONTH,
    _ingest_cmd,
    _payload_lines,
    _run,
    render_drill,
    run_ingest_crash_drill,
)


def test_drill_single_point_converges(tmp_path):
    report = run_ingest_crash_drill(
        points=("post-ack",), base_dir=tmp_path / "drill"
    )
    assert report["schema"] == "repro.chaos/1"
    assert report["drill"] == "ingest-crash"
    assert report["passed"] is True
    (outcome,) = report["points"]
    assert outcome["point"] == "post-ack"
    assert outcome["crashed_by_sigkill"] is True
    assert outcome["fingerprints_match"] is True
    assert outcome["duplicate_reacked"] is True
    assert outcome["no_double_apply"] is True
    assert outcome["applied_seq"] == 1
    assert report["target_fingerprints"]["report_sha256"]
    assert "ndt_tests" in report["target_fingerprints"]["datasets"]

    rendered = render_drill(report)
    assert "post-ack" in rendered
    assert "pass" in rendered
    assert DRILL_MONTH in rendered


def test_injected_crash_is_a_real_sigkill(tmp_path):
    # The crash run must die by SIGKILL before the apply ever starts:
    # no receipt file, a journaled-but-unapplied WAL on disk.
    payload = tmp_path / "payload.jsonl"
    payload.write_text("\n".join(_payload_lines()) + "\n")
    receipt = tmp_path / "receipt.json"
    crashed = _run(
        _ingest_cmd(tmp_path / "cache", tmp_path / "wal", receipt, payload),
        crash_point="post-ack",
    )
    assert crashed.returncode == -9
    assert not receipt.exists()
    assert list((tmp_path / "wal").glob("wal-*.seg"))


def test_timed_out_child_is_a_failed_run(monkeypatch):
    # subprocess.run kills the child at the bound; the drill records a
    # run with no exit status, which fails its point instead of hanging.
    monkeypatch.setattr(drill, "CHILD_TIMEOUT_S", 0.5)
    hung = _run([sys.executable, "-c", "import time; time.sleep(60)"])
    assert hung.returncode is None
    assert "timed out" in hung.stderr


def test_render_flags_divergence():
    report = {
        "month": DRILL_MONTH,
        "country": "VE",
        "params": {},
        "passed": False,
        "points": [
            {
                "point": "mid-swap",
                "crashed_by_sigkill": True,
                "recovery_exit": 0,
                "fingerprints_match": False,
                "duplicate_reacked": True,
                "no_double_apply": True,
                "passed": False,
            }
        ],
    }
    rendered = render_drill(report)
    assert "DIVERGED" in rendered
    assert "DRILL FAILED" in rendered


def test_cli_drill_unknown_point_rejected():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "chaos", "--drill", "ingest-crash",
         "--points", "mid-flight"],
        capture_output=True,
        text=True,
        env=_drill_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def _drill_env():
    import os
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    return env


def test_ingest_cli_receipt_roundtrip(tmp_path):
    # Journal-only (no --apply): the receipt records the ack and the
    # empty checkpoint; a second identical run re-acks as a duplicate.
    payload = tmp_path / "payload.jsonl"
    payload.write_text("\n".join(_payload_lines()) + "\n")
    receipt = tmp_path / "receipt.json"
    cmd = _ingest_cmd(tmp_path / "cache", tmp_path / "wal", receipt, payload)
    cmd.remove("--apply")

    first = _run(cmd)
    assert first.returncode == 0, first.stderr[-2000:]
    doc = json.loads(receipt.read_text())
    assert doc["schema"] == "repro.ingest-run/1"
    assert doc["journaled"] == 1
    assert doc["applied_seq"] == 0
    assert doc["receipt"]["duplicate"] is False
    assert doc["receipt"]["partitions"] == [f"{DRILL_MONTH}.VE"]

    second = _run(cmd)
    assert second.returncode == 0, second.stderr[-2000:]
    doc = json.loads(receipt.read_text())
    assert doc["journaled"] == 1  # content-hash dedupe: nothing new
    assert doc["receipt"]["duplicate"] is True
    assert doc["receipt"]["seq"] == 1
