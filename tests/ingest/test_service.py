"""IngestService: journal-before-ack, dedupe, backpressure, recovery."""

import datetime as dt

import pytest

from repro.ingest.service import (
    IngestBacklogError,
    IngestService,
    IngestValidationError,
    apply_ingest,
)
from repro.mlab.ndt import NDTResult
from repro.obs import get_registry


def _lines(day=5, country="VE", n=2):
    return [
        NDTResult(
            date=dt.date(2024, 2, day + i),
            country=country,
            asn=8048,
            download_mbps=3.0,
            upload_mbps=1.0,
            min_rtt_ms=50.0,
            loss_rate=0.01,
        ).to_json()
        for i in range(n)
    ]


@pytest.fixture
def open_service(tmp_path):
    """Factory for services over one journal; closes each at teardown."""
    services = []

    def make(**kwargs):
        kwargs.setdefault("fsync", False)
        services.append(IngestService(tmp_path / "wal", **kwargs))
        return services[-1]

    yield make
    for service in services:
        service.wal.close()


def test_submit_acks_with_receipt(open_service):
    service = open_service()
    receipt = service.submit("ndt", _lines())
    assert receipt.seq == 1
    assert not receipt.duplicate
    assert receipt.accepted == 2
    assert receipt.quarantined == 0
    assert receipt.partitions == ("2024-02.VE",)
    assert receipt.backlog == 1
    assert service.status()["journaled"] == 1


def test_duplicate_submit_is_idempotent(open_service):
    service = open_service()
    first = service.submit("ndt", _lines())
    again = service.submit("ndt", _lines())
    assert again.duplicate
    assert again.seq == first.seq
    assert service.wal.last_seq == 1


def test_unknown_format_raises_key_error(open_service):
    with pytest.raises(KeyError):
        open_service().submit("bgp", ["x"])


def test_invalid_batch_raises_validation_error(open_service):
    service = open_service(strict=True)
    with pytest.raises(IngestValidationError):
        service.submit("ndt", ["{broken"])
    with pytest.raises(IngestValidationError):
        service.submit("ndt", ["", "   "])
    assert get_registry().counter("ingest.rejected.invalid").value == 2
    assert service.wal.last_seq == 0  # nothing journaled


def test_backlog_bound_rejects_new_batches(open_service):
    service = open_service(max_backlog=1)
    service.submit("ndt", _lines(day=1))
    with pytest.raises(IngestBacklogError) as info:
        service.submit("ndt", _lines(day=10))
    assert info.value.retry_after > 0
    assert get_registry().counter("ingest.rejected.backlog").value == 1


def test_duplicate_retry_re_acked_even_at_full_backlog(open_service):
    service = open_service(max_backlog=1)
    first = service.submit("ndt", _lines())
    again = service.submit("ndt", _lines())  # retry after a lost ack
    assert again.duplicate
    assert again.seq == first.seq


def test_recovery_restores_journal_and_checkpoint(open_service):
    service = open_service()
    service.submit("ndt", _lines(day=1))
    service.submit("ndt", _lines(day=10))
    service.mark_applied(2, {"artifacts": "abc"})
    service.submit("ndt", _lines(day=20))
    service.wal.close()

    recovered = open_service()
    assert recovered.wal.last_seq == 3
    assert recovered.applied_seq == 2
    assert recovered.backlog() == 1
    assert recovered.applied_fingerprints == {"artifacts": "abc"}
    overlay = recovered.overlay()
    (key, lines), = overlay.partitions("ndt_tests")
    assert len(lines) == 6


def test_overlay_matches_submissions(open_service):
    service = open_service()
    service.submit("ndt", _lines(country="VE"))
    service.submit("ndt", _lines(country="BR"))
    overlay = service.overlay()
    assert overlay.summary() == {"ndt_tests": ["2024-02.BR", "2024-02.VE"]}


@pytest.mark.parametrize("jobs", [0, 2])
def test_the_apply_accepts_only_one_job(open_service, jobs):
    service = open_service()
    service.submit("ndt", _lines())
    with pytest.raises(ValueError, match="jobs must be 1"):
        apply_ingest(service, None, {}, jobs=jobs)
    assert service.backlog() == 1  # nothing was applied
