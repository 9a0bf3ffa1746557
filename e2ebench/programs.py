"""Launching the repo's own programs (``repro cluster`` / ``serve`` /
``send``) as child processes and reading their cost back.

Peak RSS and CPU time come from ``os.wait4`` on each child, so they
describe the program alone, never the benchmark's own process.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Hard ceiling on any one child; a hung program fails the run instead
#: of outliving the benchmark's own deadline.
CHILD_TIMEOUT_S = 120.0


@dataclass
class Finished:
    """How one child process ended and what it cost."""

    code: int
    wall_s: float
    peak_rss_mib: float
    cpu_s: float
    stderr: str


def repro_command(*args: str) -> List[str]:
    """argv that runs the ``repro`` CLI from source."""
    return [sys.executable, "-m", "repro.cli", *args]


def program_env(root: str, cache_dir: str) -> Dict[str, str]:
    """Environment for the programs: source tree on the path, datasets
    cached under the benchmark's own work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["REPRO_CACHE"] = cache_dir
    return env


def _reap(proc: subprocess.Popen, started: float, timeout: float):
    """Block in ``wait4`` until ``proc`` exits (killing it past
    ``timeout``); returns (exit code, wall seconds, rusage)."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def _cost(code: int, wall: float, usage, stderr: str) -> Finished:
    return Finished(
        code=code,
        wall_s=wall,
        peak_rss_mib=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        cpu_s=usage.ru_utime + usage.ru_stime,
        stderr=stderr,
    )


def run_program(argv: Sequence[str], *, cwd: str, env: Dict[str, str],
                timeout: float = CHILD_TIMEOUT_S) -> Finished:
    """Run one program to completion; wall time spans launch to exit."""
    log = os.path.join(cwd, "child.stderr")
    with open(log, "w+", encoding="utf-8") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        code, wall, usage = _reap(proc, started, timeout)
        err.seek(0)
        text = err.read()
    return _cost(code, wall, usage, text)


@dataclass
class Daemon:
    """A running ``repro serve`` child, ready once it printed its
    ``serving on`` line."""

    proc: subprocess.Popen
    launched: float
    ready_s: float = 0.0
    lines: List[str] = field(default_factory=list)
    _reader: Optional[threading.Thread] = None

    @classmethod
    def start(cls, args: Sequence[str], *, cwd: str, env: Dict[str, str],
              timeout: float = 60.0) -> "Daemon":
        launched = time.perf_counter()
        proc = subprocess.Popen(repro_command("serve", *args), cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        daemon = cls(proc, launched)
        ready = threading.Event()

        def read() -> None:
            for line in proc.stderr:
                if not ready.is_set() and line.startswith("serving on"):
                    daemon.ready_s = time.perf_counter() - launched
                    ready.set()
                daemon.lines.append(line)
            ready.set()  # EOF: the daemon died before serving

        daemon._reader = threading.Thread(target=read, daemon=True)
        daemon._reader.start()
        if not ready.wait(timeout) or not daemon.ready_s:
            daemon.stop()
            raise RuntimeError("daemon did not start: " + "".join(daemon.lines)[-400:])
        return daemon

    def stop(self, timeout: float = CHILD_TIMEOUT_S) -> Finished:
        """SIGTERM (graceful drain, exit 0) and reap."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            code, wall, usage = _reap(self.proc, self.launched, timeout)
        else:  # already reaped
            code, wall, usage = self.proc.returncode, 0.0, None
        if self._reader is not None:
            self._reader.join(timeout=10.0)
        self.proc.stderr.close()
        if usage is None:
            return Finished(code, wall, 0.0, 0.0, "".join(self.lines))
        return _cost(code, wall, usage, "".join(self.lines))
