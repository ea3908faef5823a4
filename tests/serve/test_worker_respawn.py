"""Worker supervision: crashed workers respawn, crash loops exit nonzero,
and workers never outlive a killed supervisor."""

import os
import signal
import socket
import time

import pytest

from tests.serve.conftest import healthz

_FAST_RESTARTS = {"restart_window": 30.0, "backoff_base": 0.05, "backoff_cap": 0.2}


def _alive(pid):
    """Whether *pid* still runs; a zombie has exited and only awaits reaping."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _refused(port):
    try:
        socket.create_connection(("127.0.0.1", port), timeout=1).close()
    except ConnectionRefusedError:
        return True
    return False


def test_killed_worker_is_respawned(fleet):
    session, port, workers, _plane = fleet(max_restarts=5, **_FAST_RESTARTS)
    victim = max(workers)
    os.kill(victim, signal.SIGKILL)

    line = session.readline(timeout=60)  # the respawned worker's pid
    assert line.startswith("worker "), line
    assert int(line.split()[1]) not in workers
    assert healthz(port) == 200  # fleet still serves

    session.process.send_signal(signal.SIGTERM)
    assert session.process.wait(timeout=60) == 0, session.stderr()[-2000:]
    assert session.readline(timeout=60) == "restarted 1\n"


def test_crash_loop_gives_up_nonzero(fleet):
    session, _port, workers, _plane = fleet(max_restarts=2, **_FAST_RESTARTS)
    # Keep killing every worker that announces itself; after
    # max_restarts exits inside the window the supervisor must stop
    # respawning and exit 1, which ends its stdout.
    victims = workers
    while victims:
        for pid in victims:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        line = session.readline(timeout=60)
        victims = [int(line.split()[1])] if line.startswith("worker ") else []
    assert session.process.wait(timeout=60) == 1, session.stderr()[-2000:]


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process state from /proc")
def test_workers_exit_when_supervisor_is_killed(fleet):
    session, port, workers, _plane = fleet()
    deadline = time.monotonic() + 10
    session.process.kill()
    assert session.process.wait(timeout=10) == -signal.SIGKILL
    while any(_alive(pid) for pid in workers) or not _refused(port):
        assert time.monotonic() < deadline, "workers outlived their supervisor"
        time.sleep(0.1)
