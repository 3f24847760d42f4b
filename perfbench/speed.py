"""Host speed, sampled while the program runs.

The benchmark shares a few cores of a host whose speed moves by tens of
percent within seconds and drifts over minutes, so one op's seconds say
as much about the neighbours as about the program.  `Meter` runs a tiny
fixed piece of reference work (`probe`) every PERIOD_S seconds of wall
time from a SIGALRM handler while an op runs and keeps each probe's wall
and CPU time; their means are the host's speed over that op, and the
op's time divided by them stays put while seconds do not.  The probe
runs only numpy and Python, never vww, so a change to the program cannot
move it.  The handler runs between the op's bytecodes, costs about 1 %
of the op's time, and that time is taken off the op's.

Standard library and numpy only.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
SETUP_PROBES = 1000

_Y0 = np.linspace(0.0, 1.0, 32)
_XS = [0.1 * i + 1e-3 for i in range(24)]


def probe() -> str:
    """About 0.15 ms of the mix the ops spend their time on: ufuncs on
    small arrays, indexing and float arithmetic in the interpreter, and
    formatting floats into CSV text."""
    y, s = _Y0.copy(), 0.0
    for i in range(40):
        y = y + 0.01 * np.sin(y)
        s += float(y[i % 32]) * 1.0001
    return "\n".join(f"{x!r},{x * s!r}" for x in _XS)


def _timed_probe() -> tuple[float, float]:
    w0, c0 = time.perf_counter(), time.process_time()
    probe()
    return time.perf_counter() - w0, time.process_time() - c0


class Meter:
    """Context manager that samples `probe` during the block it wraps,
    plus once on entry and once on exit so a short block has samples."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(_timed_probe())

    def __enter__(self) -> "Meter":
        self.samples.append(_timed_probe())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_timed_probe())

    def record(self) -> dict:
        """Mean wall and CPU time of a probe, and the probes' total wall
        and CPU time inside the block (the entry and exit probes ran
        outside it)."""
        walls, cpus = zip(*self.samples)
        return {"probe_n": len(walls),
                "probe_wall": sum(walls) / len(walls),
                "probe_cpu": sum(cpus) / len(cpus),
                "probe_wall_sum": sum(walls[1:-1]),
                "probe_cpu_sum": sum(cpus[1:-1])}


def setup_speed() -> float:
    """Mean probe time right after a process's set-up; the first calls
    pay numpy's one-off dispatch costs and are not counted."""
    for _ in range(10):
        probe()
    return sum(_timed_probe()[0] for _ in range(SETUP_PROBES)) / SETUP_PROBES
