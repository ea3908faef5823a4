"""Benchmark fixtures: one pre-warmed Scenario per session.

Dataset generation is paid once here so every benchmark measures the
analysis pipeline itself, not the synthetic-world construction.
"""

import pytest

from repro.core import Scenario


@pytest.fixture(scope="session")
def scenario():
    sc = Scenario()
    # Materialise every lazy dataset up front.
    sc.macro, sc.delegations, sc.prefix2as, sc.peeringdb, sc.cables
    sc.ipv6, sc.root_deployment, sc.probes, sc.chaos_observations
    sc.populations, sc.offnets, sc.orgmap, sc.site_survey, sc.asrel
    sc.ndt_tests, sc.gpdns_traceroutes
    return sc


@pytest.fixture
def run_and_print(scenario, benchmark):
    """Benchmark one exhibit and print its paper-vs-measured table."""

    def run(exhibit_id):
        # The registered function itself: run_exhibit memoizes on the
        # scenario, so its second and third rounds would be memo hits.
        from repro.core.exhibit import get_exhibit

        exhibit = benchmark.pedantic(
            get_exhibit(exhibit_id), args=(scenario,), rounds=3, iterations=1
        )
        print()
        print(exhibit.render())
        return exhibit

    return run
