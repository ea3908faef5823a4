"""Capture the expected outputs the benchmark checks against.

Writes ``perfbench/expected.json`` from the program at the current
commit: the sha256 of ``repro report`` stdout, the sealed artifact
plane (every static path with its sha256, plus the plane fingerprint)
and the artifacts a July 2023 NDT append is expected to change.  Run it
only when a change moves outputs on purpose, and say so in that change:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core import Scenario  # noqa: E402
from repro.core.report import render_report  # noqa: E402
from repro.exec import DatasetCache  # noqa: E402
from repro.serve.artifacts import build_artifact_store  # noqa: E402
from repro.serve.handlers import ServeContext  # noqa: E402
from repro.serve.pool import ScenarioPool  # noqa: E402

#: A fig11 partition append moves fig11 and the report that embeds it.
INGEST_CHANGES = ["/v1/exhibit/fig11", "/v1/report"]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cache = DatasetCache(tmp)
        stdout = render_report(Scenario(cache=cache, strict=False)) + "\n"
        context = ServeContext(pool=ScenarioPool(cache=cache, strict=False))
        store = build_artifact_store(context, workers=1)
    expected = {
        "report_stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
        "plane_fingerprint": store.fingerprint(),
        "artifacts": {a.path: a.sha256 for a in sorted(store, key=lambda a: a.path)},
        "ingest_changes": INGEST_CHANGES,
    }
    path = HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
