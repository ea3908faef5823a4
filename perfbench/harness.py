"""Process, host and statistics plumbing shared by every workload.

Every run gets its own directory under ``.perfbench/`` in the checkout
(dataset caches, write-ahead logs, bytecode, server logs) and deletes it
on exit, so no run sees another's state and ``~/.cache/repro`` is never
used.  Child processes run in their own session on the program's CPU
(:func:`split_cpus`), die with the benchmark (``PR_SET_PDEATHSIG``) and
are stopped, process group and all, before the run ends.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: Modules imported once per run to fill the bytecode prefix before any
#: measured process starts: the CLI, the report path, the asyncio plane
#: and the ingest server with their stdlib and numpy dependencies.
WARM_IMPORTS = (
    "repro.cli, repro.core.report, repro.core.narrative, repro.core.scorecard, "
    "repro.exec.cache, repro.serve.aio, repro.serve.artifacts, repro.serve.server, "
    "repro.serve.ingestor, repro.ingest.service, repro.ingest.overlay"
)

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PR_SET_PDEATHSIG = 1


def split_cpus() -> tuple[set[int], set[int]]:
    """One CPU for the benchmark and one for the program it measures.

    The program is serial and a one-connection closed loop has one
    request in flight, so each side needs one CPU.  Pinning both keeps
    processes from migrating.  Keeping them apart matters on a VM: each
    vCPU's speed flips every few seconds between a fast and a slow state
    (a fixed 0.5 s loop took 0.38-0.81 s), independently of the other
    vCPU.  Client and server on one vCPU then make request latency a
    bimodal mixture whose median jumps between modes.  With one CPU both
    sides share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return {cpus[-1]}, {cpus[0]}


def _child_setup(cpus: set[int]) -> None:  # runs in the child between fork and exec
    os.sched_setaffinity(0, cpus)
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):  # not Linux: the finally-kill still runs
        pass


class RunDir:
    """The private scratch tree of one benchmark run."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        tag = f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.path = STATE / f"run-{tag}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self.pycache = self.path / "pycache"

    def sub(self, name: str) -> Path:
        """A fresh subdirectory (a dataset cache, a journal, ...)."""
        path = self.path / name
        path.mkdir(parents=True, exist_ok=False)
        return path

    def child_env(self) -> dict[str, str]:
        """Environment for every program process the run starts.

        Bytecode goes to a per-run prefix filled during set-up, so the
        parent and the change both measure the program with its bytecode
        cached, whatever the checkout's ``__pycache__`` state or the
        caller's ``PYTHONDONTWRITEBYTECODE``.  A fixed hash seed removes
        set-iteration-order variance between runs.
        """
        env = dict(os.environ)
        for name in ("PYTHONDONTWRITEBYTECODE", "REPRO_INGEST_CRASH",
                     "REPRO_PROCESS_BUILDS", "PYTHONSTARTUP", "PYTHONHOME"):
            env.pop(name, None)
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONPYCACHEPREFIX"] = str(self.pycache)
        env["PYTHONHASHSEED"] = "0"
        env["MALLOC_ARENA_MAX"] = "1"
        env["PYTHONUNBUFFERED"] = "1"
        env["XDG_CACHE_HOME"] = str(self.path / "xdg")
        return env

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            STATE.rmdir()  # only when no other run or result is left
        except OSError:
            pass


class Children:
    """Every process a run starts, each on *cpus*; :meth:`stop_all`
    leaves none behind."""

    def __init__(self, env: dict[str, str], cpus: set[int]) -> None:
        self.env = env
        self.cpus = cpus
        self._procs: list[subprocess.Popen] = []

    def spawn(self, args: list[str], stdout=subprocess.DEVNULL,
              stderr=subprocess.DEVNULL) -> subprocess.Popen:
        proc = subprocess.Popen(
            args, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=stdout, stderr=stderr, start_new_session=True,
            preexec_fn=functools.partial(_child_setup, self.cpus),
        )
        self._procs.append(proc)
        return proc

    def run(self, args: list[str], timeout: float, stdout_path: Path | None = None
            ) -> "Finished":
        """Run *args* to completion; wall time, status and peak RSS.

        ``wait4`` reaps the child, so the resource usage is this process
        alone; a watchdog kills its group if it outlives *timeout*.
        """
        out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        try:
            t0 = time.perf_counter()
            proc = self.spawn(args, stdout=out)
            watchdog = threading.Timer(timeout, _kill_group, (proc.pid,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                watchdog.join()
            seconds = time.perf_counter() - t0
        finally:
            if stdout_path:
                out.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._procs.remove(proc)
        return Finished(seconds, proc.returncode, usage.ru_maxrss / 1024.0)

    def stop(self, proc: subprocess.Popen, timeout: float = 20.0) -> int | None:
        """SIGTERM the process group, wait, SIGKILL whatever is left."""
        if proc.poll() is None:
            _signal_group(proc.pid, signal.SIGTERM)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                _kill_group(proc.pid)
                proc.wait(10)
        _kill_group(proc.pid)  # stray grandchildren, if any
        if proc.stdout is not None:
            proc.stdout.close()
        if proc in self._procs:
            self._procs.remove(proc)
        return proc.returncode

    def stop_all(self) -> None:
        for proc in list(self._procs):
            self.stop(proc, timeout=5.0)


@dataclass(frozen=True)
class Finished:
    seconds: float
    returncode: int
    peak_rss_mb: float


def _signal_group(pid: int, signum: int) -> None:
    try:
        os.killpg(pid, signum)
    except (ProcessLookupError, PermissionError):
        pass


def _kill_group(pid: int) -> None:
    _signal_group(pid, signal.SIGKILL)


def free_port() -> int:
    """A port nothing listens on right now (the CLI takes ``--port``)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, from ``/proc``."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


class StealMeter:
    """Share of host CPU time stolen by the hypervisor over an interval.

    Recorded to diagnose noisy runs; never used to drop one.
    """

    def __init__(self) -> None:
        self._start = self._read()

    @staticmethod
    def _read() -> tuple[int, int]:
        try:
            fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
        except OSError:
            return 0, 0
        values = [int(v) for v in fields[:8]]
        return values[7] if len(values) > 7 else 0, sum(values)

    def share(self) -> float:
        steal, total = self._read()
        d_total = total - self._start[1]
        return (steal - self._start[0]) / d_total if d_total > 0 else 0.0


def warm_bytecode(children: Children, timeout: float = 120.0) -> float:
    """Fill the run's bytecode prefix; returns the seconds it took."""
    t0 = time.perf_counter()
    for args in (
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        [sys.executable, "-c", f"import {WARM_IMPORTS}"],
    ):
        finished = children.run(args, timeout)
        if finished.returncode != 0:
            raise RuntimeError(f"bytecode warm-up failed: {' '.join(args)}")
    return time.perf_counter() - t0


# -- statistics ----------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of *values* (0 < q <= 1)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(count: int) -> float:
    """The tail percentile a sample of *count* supports, as a fraction.

    p99 when at least ten samples lie beyond it; otherwise the highest
    percentile that still has ten beyond it, and never below the median.
    """
    return min(0.99, max(0.5, 1.0 - 10.0 / count))


def tail(values: list[float]) -> float:
    q = tail_quantile(len(values))
    return median(values) if q == 0.5 else quantile(values, q)
