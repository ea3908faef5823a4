"""ServeIngestor: an acked batch never waits for a later submit; the freshness gauge."""

import sys
import threading
import time
from types import SimpleNamespace

from repro.obs import get_registry
from repro.serve.ingestor import ServeIngestor


class _RacingWakeup(threading.Event):
    """A wakeup whose first False ``is_set()`` lets a submit race the exit.

    That read is the apply loop deciding there is nothing left to apply.
    Right then a second thread schedules an apply (a submit landing
    between the decision and the thread's exit), and the loop acts on
    its stale read once that thread has finished or 0.5 s have passed.
    A loop that decides under the scheduler's lock keeps the racer
    waiting for the whole 0.5 s; one that does not lets it finish first.
    """

    def __init__(self, ingestor: ServeIngestor) -> None:
        super().__init__()
        self.ingestor = ingestor
        self.racer: threading.Thread | None = None

    def is_set(self) -> bool:
        value = super().is_set()
        if not value and self.racer is None:
            self.racer = threading.Thread(target=self.ingestor._schedule_apply)
            self.racer.start()
            self.racer.join(timeout=0.5)
        return value


def test_submit_racing_the_apply_loop_exit_is_applied():
    ingestor = ServeIngestor(server=None, service=None)
    applies = []
    ingestor.apply_now = lambda force=False: applies.append(force)
    wakeup = _RacingWakeup(ingestor)
    ingestor._wakeup = wakeup

    ingestor._schedule_apply()  # the first submit
    ingestor.join(timeout=10)
    assert wakeup.racer is not None
    wakeup.racer.join(timeout=10)
    assert not wakeup.racer.is_alive()
    ingestor.join(timeout=10)  # the apply the racing submit scheduled

    assert len(applies) == 2
    assert not super(_RacingWakeup, wakeup).is_set()
    thread = ingestor._thread
    assert thread is None or not thread.is_alive()


def test_concurrent_submits_strand_no_batch_and_run_one_applier():
    # Eight submitting threads on a short switch interval: at most one
    # apply runs at a time, and the last apply starts after the last
    # submit, so it covers every batch.
    ingestor = ServeIngestor(server=None, service=None)
    lock = threading.Lock()
    submitted = 0
    state = {"active": 0, "max_active": 0, "covered": 0}

    def apply_now(force=False):
        with lock:
            state["active"] += 1
            state["max_active"] = max(state["max_active"], state["active"])
            seen = submitted
        time.sleep(0.0005)
        with lock:
            state["active"] -= 1
            state["covered"] = max(state["covered"], seen)

    def submit():
        nonlocal submitted
        for _ in range(200):
            with lock:
                submitted += 1
            ingestor._schedule_apply()

    ingestor.apply_now = apply_now
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        deadline = time.monotonic() + 30
        while (applier := ingestor._thread) is not None and applier.is_alive():
            assert time.monotonic() < deadline, "the apply thread never drained"
            applier.join(timeout=1)
    finally:
        sys.setswitchinterval(interval)

    assert state["max_active"] == 1
    assert state["covered"] == submitted == 1600


def test_freshness_lag_runs_from_the_oldest_new_ack_to_the_swap(monkeypatch):
    # A duplicate re-ack does not move its batch's ack time, a swap sets
    # the lag of the oldest batch it made visible, and one that makes
    # no batch acked here visible (recovery) leaves the gauge alone.
    receipts = [(1, False), (1, True), (2, False)]

    class Service:
        def submit(self, format_name, lines, meta):
            seq, duplicate = receipts.pop(0)
            return SimpleNamespace(seq=seq, duplicate=duplicate)

    clock = iter([10.0, 11.0, 12.0, 15.0, 20.0, 30.0])
    monkeypatch.setattr("repro.serve.ingestor.time.monotonic", lambda: next(clock))
    ingestor = ServeIngestor(server=None, service=Service())
    ingestor._schedule_apply = lambda: None
    for _ in range(3):
        ingestor.submit("ndt", [])
    gauge = get_registry().gauge("ingest.freshness_lag")

    ingestor._record_freshness(1)  # swapped at 15.0; seq 1 acked at 10.0
    assert gauge.value == 5.0
    ingestor._record_freshness(2)  # swapped at 20.0; seq 2 acked at 12.0
    assert gauge.value == 8.0
    ingestor._record_freshness(3)  # seq 3 was never acked here
    assert gauge.value == 8.0
