"""CPU-speed probe on the benchmark's own core.

The benchmark runs one thread on one virtual CPU, and the speed of that CPU
drifts with load the benchmark cannot see or control: on the 2-vCPU Xeon VM
this benchmark was written on, a fixed Python loop ran anywhere from 1.5 M to
8 M steps per second within minutes, while process CPU time kept pace with
wall time. Raw wall times then measure the host as much as the code.

:class:`SpeedProbe` pins the benchmark to one CPU and starts a probe process
on that same CPU. Every ``PERIOD_S`` the probe runs a fixed Python loop for
``BURST_S`` and logs its rate, so it samples the speed the benchmark itself
gets at that moment, for about 1% of the CPU. A timed interval is then
reported at the reference speed:

    scaled = elapsed * (median probe rate over the interval) / REFERENCE_RATE

A probe on the other CPU does not track the benchmark's speed; on the same
CPU it cut the spread of repeated 0.4 s simulation chunks two- to threefold.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.04
BURST_S = 0.0005
# Probe loop steps per second that define one reference second; about the
# probe's median rate on the VM the benchmark was written on.
REFERENCE_RATE = 1.0e7

_CODE = r"""
import os, sys, time
parent = os.getppid()
period, burst = float(sys.argv[2]), float(sys.argv[3])
with open(sys.argv[1], "w", buffering=1) as out:
    while os.getppid() == parent:
        start = time.monotonic()
        steps = 0
        while True:
            for _ in range(50):
                steps += 1
            now = time.monotonic()
            if now - start >= burst:
                break
        out.write(f"{now} {steps / (now - start)}\n")
        time.sleep(period)
"""


class SpeedProbe:
    """Probe process on the caller's CPU; use as a context manager.

    Times passed to :meth:`scale` are ``time.monotonic()`` readings, which
    are comparable across processes.
    """

    def __init__(self, log_path: Path):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.log_path = log_path
        self.samples: list[tuple[float, float]] = []
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _CODE, str(log_path), str(PERIOD_S), str(BURST_S)])
        deadline = time.monotonic() + 60.0
        while not self._read() and self._proc.poll() is None:
            if time.monotonic() > deadline:
                break
            time.sleep(PERIOD_S)

    def _read(self) -> list[tuple[float, float]]:
        if not self.log_path.exists():
            return []
        lines = self.log_path.read_text().splitlines()
        return [tuple(map(float, line.split())) for line in lines if line.count(" ") == 1]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
        self._proc.wait(timeout=30)
        self.samples = self._read()

    def scale(self, start: float, end: float) -> float:
        """Seconds the interval would take at the reference speed."""
        rates = [r for t, r in self.samples if start - PERIOD_S <= t <= end + PERIOD_S]
        if not rates:
            raise RuntimeError(f"no probe sample between {start} and {end}")
        # The median ignores the odd burst that lost the CPU part-way.
        return (end - start) * statistics.median(rates) / REFERENCE_RATE
