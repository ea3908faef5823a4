"""Serve hardening: error envelopes, shedding, deadlines, breaker, health.

These tests use throwaway single-process servers (the ``served``
factory) with a tiny scenario parameter set or a pool seeded with the
session scenario, so nothing here pays a full-size build.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import Scenario
from repro.faults import FaultPlan
from repro.obs import get_registry
from repro.serve import (
    BreakerOpenError,
    CircuitBreaker,
    DeadlineExpired,
    PoolTimeoutError,
    ScenarioPool,
    deadline_scope,
    handlers,
)
from repro.serve.deadline import check, remaining

SMALL = {"ndt_tests_per_month": 1, "gpdns_samples_per_month": 1}


def _get(server, path, headers=None, timeout=60):
    request = urllib.request.Request(server.url + path, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


# -- error envelope + poisoned handler ---------------------------------------


def test_poisoned_handler_gets_500_envelope_and_server_survives(served):
    # The regression the satellite asks for: one handler that always
    # crashes must produce a structured 500 (not a hung or dropped
    # connection) and must not take the worker pool down with it.
    server = served()

    def poisoned(ctx):
        raise RuntimeError("handler bug")

    server.router.add("boom", "GET", "/boom", poisoned, cacheable=False)

    status, _, body = _get(server, "/boom")
    assert status == 500
    doc = json.loads(body)
    assert doc["error"] == {"status": 500, "message": "internal server error"}
    registry = get_registry()
    assert registry.counter("serve.errors").value == 1
    assert registry.counter("serve.errors.boom").value == 1

    # The server keeps answering healthy endpoints afterwards.
    status, _, body = _get(server, "/healthz")
    assert status == 200
    assert json.loads(body)["data"]["status"] == "ok"


def test_error_counter_carries_the_endpoint_dimension(served):
    server = served()

    def flaky(ctx):
        raise ValueError("nope")

    server.router.add("flaky", "GET", "/flaky", flaky, cacheable=False)
    for _ in range(3):
        _get(server, "/flaky")
    registry = get_registry()
    assert registry.counter("serve.errors").value == 3
    assert registry.counter("serve.errors.flaky").value == 3
    assert registry.counter("serve.errors.healthz").value == 0


# -- degraded health + report under faults -----------------------------------


def test_healthz_reports_degraded_while_report_still_serves(served):
    # The acceptance scenario: one dataset degraded by a fault plan; the
    # server reports "degraded" yet /v1/report still answers 200 with a
    # coverage annotation.
    degraded_world = Scenario(
        strict=False,
        fault_plan=FaultPlan.single("cables", "truncate", seed=42),
        **SMALL,
    )
    degraded_world.build_all()
    server = served(params=SMALL)
    server.context.pool.seed(degraded_world, **SMALL)

    status, _, body = _get(server, "/healthz")
    assert status == 200
    doc = json.loads(body)["data"]
    assert doc["status"] == "degraded"
    assert doc["degraded_datasets"] == ["cables"]
    assert doc["breaker"] == "closed"

    status, _, body = _get(server, "/v1/report")
    assert status == 200
    report = json.loads(body)["data"]["report"]
    assert "COVERAGE: 15/16 datasets available" in report


def test_healthz_unhealthy_when_breaker_open(served):
    server = served()
    breaker = server.context.pool.breaker
    for _ in range(breaker.failure_threshold):
        breaker.record_failure()
    status, _, body = _get(server, "/healthz")
    assert status == 200
    doc = json.loads(body)["data"]
    assert doc["status"] == "unhealthy"
    assert doc["breaker"] == "open"


# -- load shedding ------------------------------------------------------------


def test_saturated_server_sheds_with_503_and_retry_after(served, scenario):
    server = served(max_inflight=1)
    release = threading.Event()
    entered = threading.Event()

    def slow(ctx):
        entered.set()
        release.wait(timeout=30)
        return {"ok": True}

    server.router.add("slow", "GET", "/slow", slow, cacheable=False)

    results = []
    blocker = threading.Thread(
        target=lambda: results.append(_get(server, "/slow"))
    )
    blocker.start()
    try:
        assert entered.wait(timeout=10)
        status, headers, body = _get(server, "/v1/exhibits")
        assert status == 503
        assert headers["Retry-After"] == "1"
        doc = json.loads(body)
        assert doc["error"]["message"] == "server saturated; request shed"
        assert get_registry().counter("serve.requests.shed").value == 1
        # Health stays observable exactly when the server is saturated.
        status, _, body = _get(server, "/healthz")
        assert status == 200
    finally:
        release.set()
        blocker.join(timeout=10)
    assert results[0][0] == 200  # the in-flight request still completed


def test_unsaturated_server_does_not_shed(served):
    server = served(max_inflight=2)
    status, _, _ = _get(server, "/v1/exhibits")
    assert status == 200
    assert get_registry().counter("serve.requests.shed").value == 0


# -- deadlines ----------------------------------------------------------------


def test_deadline_scope_remaining_and_check():
    assert remaining() is None
    with deadline_scope(30.0):
        budget = remaining()
        assert budget is not None and 0 < budget <= 30.0
        check()  # far from expiry: no raise
    assert remaining() is None


def test_expired_deadline_raises_and_counts():
    with deadline_scope(0.0):
        with pytest.raises(DeadlineExpired):
            check()
    assert get_registry().counter("serve.deadline.expired").value == 1


def test_pool_waiter_times_out_on_its_deadline(monkeypatch):
    pool = ScenarioPool()
    release = threading.Event()
    building = threading.Event()

    def slow_build(params):
        building.set()
        release.wait(timeout=30)
        return Scenario(**params)

    monkeypatch.setattr(pool, "_build", slow_build)
    leader = threading.Thread(target=lambda: pool.get(**SMALL))
    leader.start()
    try:
        assert building.wait(timeout=10)
        with deadline_scope(0.05):
            with pytest.raises(PoolTimeoutError):
                pool.get(**SMALL)
        assert get_registry().counter("serve.deadline.expired").value == 1
    finally:
        release.set()
        leader.join(timeout=30)


# -- circuit breaker over the pool --------------------------------------------


def _failing_pool(threshold=1):
    pool = ScenarioPool(breaker=CircuitBreaker(failure_threshold=threshold))
    pool._build = lambda params: (_ for _ in ()).throw(OSError("generator broken"))
    return pool


def test_pool_failures_open_the_breaker():
    pool = _failing_pool(threshold=2)
    for _ in range(2):
        with pytest.raises(OSError):
            pool.get(**SMALL)
    assert pool.breaker.state == "open"
    with pytest.raises(BreakerOpenError):
        pool.get(**SMALL)
    assert get_registry().counter("breaker.opened").value == 1
    assert get_registry().counter("breaker.rejected").value == 1


def test_eight_threads_against_an_open_pool_never_deadlock():
    # The satellite regression: eight concurrent requests racing a pool
    # whose breaker is open must all fail fast — no thread may wedge on
    # a build that will never be attempted.
    pool = _failing_pool(threshold=1)
    with pytest.raises(OSError):
        pool.get(**SMALL)
    assert pool.breaker.state == "open"

    barrier = threading.Barrier(8)
    outcomes = []
    lock = threading.Lock()

    def worker():
        barrier.wait()
        try:
            pool.get(**SMALL)
            outcome = "scenario"
        except BreakerOpenError:
            outcome = "breaker-open"
        except OSError:
            outcome = "build-error"
        with lock:
            outcomes.append(outcome)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads), "a thread deadlocked"
    assert len(outcomes) == 8
    # Nobody got a scenario, and at least the non-leader threads were
    # rejected by the breaker without touching the build path.
    assert "scenario" not in outcomes
    assert outcomes.count("breaker-open") >= 7


def test_breaker_open_surfaces_as_503_with_retry_after(served):
    # The server's params point at a *cold* slot, so the request must go
    # through the pool and hit the open breaker end-to-end.
    server = served(params=SMALL)
    breaker = server.context.pool.breaker
    for _ in range(breaker.failure_threshold):
        breaker.record_failure()
    status, headers, body = _get(server, "/v1/exhibit/fig01")
    assert status == 503
    assert int(headers["Retry-After"]) >= 1
    doc = json.loads(body)
    assert doc["error"]["reason"] == "BreakerOpenError"
    assert "circuit breaker open" in doc["error"]["message"]


def test_render_past_its_deadline_still_fills_the_plane(served, monkeypatch):
    # The first /v1/report renders for longer than the deadline: that
    # request gets its 503, but the render lands in the plane, so a
    # later request is served from it instead of timing out again.
    # The session scenario may already hold every exhibit, which makes
    # the real render fast; the handler is slowed past the deadline.
    render_report = handlers.handle_report

    def slow_report(ctx):
        time.sleep(0.2)
        return render_report(ctx)

    monkeypatch.setattr(handlers, "handle_report", slow_report)
    server = served(deadline_seconds=0.05)
    status, headers, body = _get(server, "/v1/report")
    assert status == 503
    assert json.loads(body)["error"]["reason"] == "DeadlineExpired"
    deadline = time.monotonic() + 60
    while server.surface.find("report", {}) is None:
        assert time.monotonic() < deadline, "the render never landed"
        time.sleep(0.05)
    status, headers, _ = _get(server, "/v1/report")
    assert status == 200
    assert "X-Request-Id" not in headers  # static
