"""Seeded inputs: the serve request sequence and the ingest batches.

The program only ever sees what these functions generate; the same seed
gives the same inputs, byte for byte.
"""

from __future__ import annotations

import datetime as dt
import json
import random

#: Share of serve requests that revalidate with ``If-None-Match``.  An
#: assumption, not a measurement: neither the program, its own serve
#: benchmark nor the paper gives a revalidation rate.  A share is needed
#: so the 304 path is exercised and checked; README gives
#: ``latency_p50_ms`` at 0 and 0.2 (a few percent apart).
REVALIDATE_SHARE = 0.2

#: Length of the request cycle; a run longer than this wraps around.
SEQUENCE_LENGTH = 1 << 16

#: Countries whose July 2023 median is a fig11 row, so every append
#: changes ``/v1/report`` (a CO or June append leaves it unchanged).
INGEST_COUNTRIES = ("VE", "UY", "BR", "CL", "AR", "MX")
INGEST_MONTH = (2023, 7)

#: Rows per batch: the scenario's own NDT sample count per country-month
#: (``Scenario.ndt_tests_per_month``, default 40), so each batch is one
#: more month of one country's tests.
BATCH_ROWS = 40


def request_sequence(seed: int, path_count: int,
                     length: int = SEQUENCE_LENGTH) -> list[tuple[int, bool]]:
    """``(path index, revalidate)`` pairs, uniform over the static paths."""
    rng = random.Random(f"serve-static/{seed}")
    return [
        (rng.randrange(path_count), rng.random() < REVALIDATE_SHARE)
        for _ in range(length)
    ]


def ndt_batch(seed: int, index: int) -> tuple[str, bytes]:
    """Batch *index* of a run: one country's July 2023 NDT rows, as JSONL.

    Batch *index* holds :data:`BATCH_ROWS` tests between ``100 * (index + 1)``
    and ``100 * (index + 2)`` Mbit/s: every value lies above the country's
    current July median, so that median (a fig11 row, hence the report)
    rises with every append, whichever batches came before.
    """
    rng = random.Random(f"ingest-append/{seed}/{index}")
    country = rng.choice(INGEST_COUNTRIES)
    year, month = INGEST_MONTH
    rows = []
    for _ in range(BATCH_ROWS):
        rows.append(json.dumps({
            "date": dt.date(year, month, rng.randint(1, 31)).isoformat(),
            "client_country": country,
            "client_asn": rng.randint(1000, 64000),
            "download_mbps": round(100.0 * (index + 1 + rng.random()), 4),
            "upload_mbps": round(rng.uniform(10.0, 300.0), 4),
            "min_rtt_ms": round(rng.uniform(4.0, 80.0), 3),
            "loss_rate": round(rng.uniform(0.0, 0.02), 6),
        }, sort_keys=True))
    return country, ("\n".join(rows) + "\n").encode("utf-8")
