"""Run a Python script in its own session, with every read and wait bounded.

A script that forks (the pre-forked ``run_workers`` fleet) shares its
stdout pipe with its children.  If one of them outlives the script, an
unbounded ``communicate()`` or ``readline()`` blocks for as long as it
lives.  :func:`launch` starts the script as the leader of a new
session, reads its stdout on a daemon thread so every read takes a
timeout, and SIGKILLs the whole session when the ``with`` block exits.
"""

from __future__ import annotations

import contextlib
import os
import queue
import signal
import subprocess
import sys
import tempfile
import threading


class Session:
    """A running script (``process``) whose stdout lines read with a timeout."""

    def __init__(self, process: subprocess.Popen, stderr) -> None:
        self.process = process
        self._stderr = stderr
        self._lines: queue.Queue[str] = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put("")  # EOF: every process holding the pipe is gone

    def readline(self, timeout: float) -> str:
        """The next stdout line, or "" at EOF; fails after *timeout* s."""
        try:
            return self._lines.get(timeout=timeout)
        except queue.Empty:
            raise AssertionError(f"script printed nothing for {timeout} s") from None

    def stderr(self) -> str:
        self._stderr.seek(0)
        return self._stderr.read()

    def close(self) -> None:
        """SIGKILL every process in the session and reap the script."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=10)
        self._reader.join(timeout=10)
        if not self._reader.is_alive():  # else close() would block on its read
            self.process.stdout.close()


@contextlib.contextmanager
def launch(code: str):
    """Run ``python -c code`` as a session leader; kill the session on exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    with tempfile.TemporaryFile(mode="w+") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
            text=True,
            start_new_session=True,
        )
        session = Session(process, stderr)
        try:
            yield session
        finally:
            session.close()
