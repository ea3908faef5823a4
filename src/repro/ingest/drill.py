"""The ``repro chaos --drill ingest-crash`` harness.

The drill proves the durability contract end to end, with *real*
crashes (``SIGKILL`` via :func:`repro.ingest.service.maybe_crash`, no
``finally`` blocks, no flushing) at every injection point:

1. An **uninterrupted control run** journals a synthetic month and
   applies it, recording the dataset/artifact fingerprints and the
   ``/v1/report`` body hash.
2. For each crash point (``post-ack``, ``mid-rebuild``, ``mid-swap``)
   a fresh journal takes the same batch with ``REPRO_INGEST_CRASH``
   set; the process must die by SIGKILL mid-pipeline.
3. A **recovery run** over the torn journal (no batch, no injection)
   must replay and apply to *exactly* the control fingerprints.
4. A **duplicate resubmission** of the original batch must re-ack as a
   duplicate without growing the journal or changing any fingerprint —
   acked work is applied exactly once.

Every run is a real subprocess of ``python -m repro ingest`` sharing
one dataset cache (so base partitions hit, only dirty shards rebuild),
mirroring production recovery: a supervisor restarting a crashed
ingester over the same journal directory.

The report renders as text and serialises as a ``repro.chaos/1``
artifact with ``"drill": "ingest-crash"``.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.ingest.service import CRASH_POINTS, ENV_CRASH
from repro.obs import get_logger

_LOG = get_logger("repro.ingest.drill")

#: Scenario size the drill runs at (small: the contract is the same at
#: any size, the wall-clock is not).
DRILL_PARAMS = {"ndt_tests_per_month": 2, "gpdns_samples_per_month": 1}

#: The month x country partition the drill appends (one month past the
#: synthetic window's end, so the append is unambiguous new data).
DRILL_MONTH = "2024-02"
DRILL_COUNTRY = "VE"

#: Hard bound (seconds) on each ``repro ingest`` child.  A child that
#: runs past it is SIGKILLed by ``subprocess.run`` and its point fails;
#: it starts no processes of its own, so nothing else is left behind.
CHILD_TIMEOUT_S = 300


def _payload_lines(rows: int = 4) -> list[str]:
    from repro.mlab.ndt import NDTResult

    year, month = int(DRILL_MONTH[:4]), int(DRILL_MONTH[5:7])
    return [
        NDTResult(
            date=dt.date(year, month, 3 + i),
            country=DRILL_COUNTRY,
            asn=8048,
            download_mbps=2.5 + i,
            upload_mbps=0.9,
            min_rtt_ms=52.0,
            loss_rate=0.015,
        ).to_json()
        for i in range(rows)
    ]


def _ingest_cmd(
    cache_dir: Path, wal_dir: Path, receipt: Path, payload: Path | None
) -> list[str]:
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "--cache-dir",
        str(cache_dir),
        "ingest",
        "ndt",
    ]
    if payload is not None:
        cmd.append(str(payload))
    cmd += [
        "--wal-dir",
        str(wal_dir),
        "--apply",
        "--receipt",
        str(receipt),
    ]
    for flag, value in DRILL_PARAMS.items():
        cmd += [f"--{flag.replace('_', '-')}", str(value)]
    return cmd


def _run(cmd: list[str], crash_point: str | None = None) -> subprocess.CompletedProcess:
    """Run one child; a timed-out child comes back with returncode None."""
    env = dict(os.environ)
    env.pop(ENV_CRASH, None)
    if crash_point is not None:
        env[ENV_CRASH] = crash_point
    try:
        return subprocess.run(
            cmd,
            env=env,
            capture_output=True,
            text=True,
            stdin=subprocess.DEVNULL,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(
            cmd, None, "", f"timed out after {CHILD_TIMEOUT_S} s"
        )


def _read_receipt(path: Path) -> dict:
    return json.loads(path.read_text())


def run_ingest_crash_drill(
    points: tuple[str, ...] = CRASH_POINTS,
    base_dir: Path | str | None = None,
) -> dict:
    """Run the full drill; returns the ``repro.chaos/1`` report dict."""
    root = Path(
        base_dir
        if base_dir is not None
        else tempfile.mkdtemp(prefix="repro-ingest-drill-")
    )
    root.mkdir(parents=True, exist_ok=True)
    cache_dir = root / "cache"  # shared: base shards build once, then hit
    payload = root / "payload.jsonl"
    payload.write_text("\n".join(_payload_lines()) + "\n")

    # 1. The uninterrupted control run: the convergence target.
    control_receipt = root / "control" / "receipt.json"
    control_receipt.parent.mkdir(parents=True)
    control = _run(
        _ingest_cmd(cache_dir, root / "control" / "wal", control_receipt, payload)
    )
    if control.returncode != 0:
        raise RuntimeError(
            f"control ingest run failed ({control.returncode}):\n"
            f"{control.stderr[-2000:]}"
        )
    target = _read_receipt(control_receipt)
    results = []
    for point in points:
        point_dir = root / point
        wal_dir = point_dir / "wal"
        receipt = point_dir / "receipt.json"
        point_dir.mkdir(parents=True)

        # 2. Crash mid-pipeline: the injected SIGKILL must land.
        crashed = _run(
            _ingest_cmd(cache_dir, wal_dir, receipt, payload), crash_point=point
        )
        killed = crashed.returncode == -signal.SIGKILL

        # 3. Recover over the torn state: no batch, no injection.
        recovery = _run(_ingest_cmd(cache_dir, wal_dir, receipt, None))
        recovered = _read_receipt(receipt) if recovery.returncode == 0 else {}

        # 4. Resubmit the identical batch: duplicate no-op.
        resubmit = _run(_ingest_cmd(cache_dir, wal_dir, receipt, payload))
        resubmitted = _read_receipt(receipt) if resubmit.returncode == 0 else {}

        outcome = {
            "point": point,
            "crashed_by_sigkill": killed,
            "recovery_exit": recovery.returncode,
            "fingerprints_match": (
                bool(recovered)
                and recovered.get("fingerprints") == target["fingerprints"]
            ),
            "applied_seq": recovered.get("applied_seq"),
            "duplicate_reacked": (
                resubmitted.get("receipt", {}).get("duplicate") is True
            ),
            "no_double_apply": (
                resubmitted.get("applied_seq") == recovered.get("applied_seq")
                and resubmitted.get("fingerprints") == target["fingerprints"]
                and resubmitted.get("journaled") == recovered.get("journaled")
            ),
        }
        outcome["passed"] = all(
            (
                outcome["crashed_by_sigkill"],
                outcome["recovery_exit"] == 0,
                outcome["fingerprints_match"],
                outcome["duplicate_reacked"],
                outcome["no_double_apply"],
            )
        )
        if not outcome["passed"]:
            _LOG.warning(
                "ingest.drill.point_failed",
                point=point,
                crash_stderr=crashed.stderr[-500:],
                recovery_stderr=recovery.stderr[-500:],
            )
        results.append(outcome)

    report = {
        "schema": "repro.chaos/1",
        "drill": "ingest-crash",
        "params": dict(DRILL_PARAMS),
        "month": DRILL_MONTH,
        "country": DRILL_COUNTRY,
        "target_fingerprints": target["fingerprints"],
        "points": results,
        "passed": all(r["passed"] for r in results),
    }
    return report


def render_drill(report: dict) -> str:
    """The human-readable drill summary."""
    lines = [
        "INGEST-CRASH DRILL: journal replay converges after SIGKILL",
        f"append: {report['month']} {report['country']} "
        f"(params {report['params']})",
        f"{'point':<12} {'killed':<7} {'recovered':<10} "
        f"{'fingerprints':<13} {'dedupe':<7} verdict",
        "-" * 62,
    ]
    for row in report["points"]:
        lines.append(
            f"{row['point']:<12} "
            f"{'yes' if row['crashed_by_sigkill'] else 'NO':<7} "
            f"{'yes' if row['recovery_exit'] == 0 else 'NO':<10} "
            f"{'match' if row['fingerprints_match'] else 'DIVERGED':<13} "
            f"{'ok' if row['duplicate_reacked'] and row['no_double_apply'] else 'FAIL':<7} "
            f"{'pass' if row['passed'] else 'FAIL'}"
        )
    lines.append(
        "verdict: "
        + (
            "every crash point replayed to the uninterrupted fingerprints"
            if report["passed"]
            else "DRILL FAILED - recovery diverged from the control run"
        )
    )
    return "\n".join(lines)
