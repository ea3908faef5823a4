"""Shared fixtures: one Scenario per test session, isolated obs + cache state.

Scenario properties are lazy, cached, and thread-safe, so tests only pay
for the datasets they actually touch.  The observability layer is
process-global (see :mod:`repro.obs`), so an autouse fixture resets it
around every test: counters recorded by one test can never satisfy
another's assertions, and a test that enables tracing cannot leave it on.

The CLI defaults to the persistent dataset cache under
``$XDG_CACHE_HOME/repro``; a second autouse fixture points
``XDG_CACHE_HOME`` at a per-test temp directory so no test ever reads a
previous run's entries or writes into the developer's real cache.
"""

import os
from pathlib import Path

import pytest

import repro.obs
from repro.core import Scenario


@pytest.fixture(scope="session")
def scenario():
    # No disk cache: the session scenario exercises the pure in-process
    # build path that most tests assert against.
    return Scenario()


@pytest.fixture(autouse=True)
def reset_obs_state():
    """Fresh global metrics registry and disabled tracer for every test."""
    repro.obs.reset()
    yield
    repro.obs.reset()


@pytest.fixture(autouse=True)
def isolated_cache_dir(tmp_path, monkeypatch):
    """Point the default dataset cache at a fresh per-test directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
    return tmp_path / "xdg-cache" / "repro"


def open_files_under(directory: Path) -> list[Path]:
    """Paths under *directory* this process holds open (Linux /proc)."""
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("needs /proc/self/fd")
    opened = []
    for fd in fds.iterdir():
        try:
            target = Path(os.readlink(fd))
        except OSError:  # closed since the listing
            continue
        if target.is_relative_to(directory):
            opened.append(target)
    return opened
