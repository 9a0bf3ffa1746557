"""Host-speed probe for the closed-loop timings.

On a shared virtual machine the same program run takes from 5.3 s to
8.5 s minutes apart, in CPU time as much as in wall time: neighbours
on the host change how fast each instruction runs, in swings from a
second to minutes. While a single-process program runs, a thread of
the benchmark's own process times a tiny fixed loop every
``PROBE_EVERY_S`` (a few per cent of one CPU), and the run's times are
scaled by ``RUN_REFERENCE_S`` / (the mean loop time), which reports
them at one reference host speed. A program that keeps both CPUs busy
would share its CPUs with that thread, so its runs are bracketed
instead by ``calibrate`` on the idle host before and after. The loop
never touches the program under test, so a change to the program moves
the scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List

#: Mean thread CPU seconds of ``probe_once`` at the reference host
#: speed (typical on the 2-vCPU virtual machine the bounds were set on),
#: spaced ``PROBE_EVERY_S`` apart during a run and back to back in
#: ``calibrate``, where the loop runs faster. Scaled times are close to
#: raw ones on that machine.
RUN_REFERENCE_S = 0.0031
IDLE_REFERENCE_S = 0.0020
#: Pause between two probes.
PROBE_EVERY_S = 0.05
#: How long ``calibrate`` probes back to back.
CALIBRATE_S = 0.25


def probe_once() -> float:
    """Thread CPU seconds for one pass of a fixed dict-update loop."""
    started = time.thread_time()
    table = {}
    for i in range(20_000):
        table[i & 255] = table.get(i & 255, 0) + i
    return time.thread_time() - started


def calibrate(seconds: float = CALIBRATE_S) -> List[float]:
    """Probe back to back for ``seconds``; returns the probe times."""
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        samples.append(probe_once())
    return samples


def scale_of(samples: List[float], reference: float = IDLE_REFERENCE_S) -> float:
    """``reference`` over the mean probe time: below 1 when the host
    ran slower than the reference."""
    return reference / statistics.fmean(samples)


class HostSpeed:
    """Probes the host's speed in a background thread for as long as
    the ``with`` block runs; ``scale`` then maps the block's times to
    the reference host speed."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._probe, daemon=True)

    def _probe(self) -> None:
        while True:
            self.samples.append(probe_once())
            if self._stop.wait(PROBE_EVERY_S):
                return

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def scale(self) -> float:
        return scale_of(self.samples, RUN_REFERENCE_S)
