"""Serve hardening: error envelopes and health.

These tests use throwaway single-process servers (the ``served``
factory) over a pool seeded with the session scenario or a tiny
scenario, so nothing here pays a full-size build.
"""

import json
import urllib.error
import urllib.request

from repro.core import Scenario
from repro.faults import FaultPlan
from repro.obs import get_registry
from repro.serve import ScenarioPool, ServeContext

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
    pool = ScenarioPool()
    pool.seed(degraded_world, **SMALL)
    server = served(context=ServeContext(pool=pool, params=dict(SMALL)))

    status, _, body = _get(server, "/healthz")
    assert status == 200
    doc = json.loads(body)["data"]
    assert doc["status"] == "degraded"
    assert doc["degraded_datasets"] == ["cables"]

    status, _, body = _get(server, "/v1/report")
    assert status == 200
    report = json.loads(body)["data"]["report"]
    assert "COVERAGE: 15/16 datasets available" in report

