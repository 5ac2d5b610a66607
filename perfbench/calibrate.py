"""Host-speed calibration of the benchmark's timings.

The speed of a small shared host drifts: on the 2-vCPU reference sandbox a
fixed pure-Python task took anywhere from 12 ms to 25 ms within one minute,
in CPU time as much as in wall time.  Raw wall times of the same code then
spread by more than any useful bound.

So every end-to-end timing is taken in calibrated seconds.  While an
operation runs, a SIGALRM every ``INTERVAL_S`` seconds of wall time runs a
fixed chunk of work and records the host's speed, the chunk's reference
time divided by the time it took.  The operation's calibrated time is its
wall time, less the time spent in the chunks, times the mean of those
speeds: the seconds the operation would have taken on a host where the
chunk takes its reference time.  One chunk also runs just before and one
just after the operation, so that operations shorter than the interval
get samples too.  The chunks cost about 2 % of the wall time.

The drift does not slow every kind of work alike: interpreter loops slow
down far more than CPython's big-integer arithmetic.  So there are two
chunks, and each workload uses the one whose work resembles its own.  The
chunks are the benchmark's own code and never change with the program, so
a change of the program moves calibrated times as it would move wall times
on a host of steady speed.
"""

from __future__ import annotations

import importlib
import signal
import sys
import time

INTERVAL_S = 0.05
_TABLE = [(i * 2654435761) % 4099 for i in range(4096)]
_X, _Y = 3 ** 9000, 7 ** 5000 + 1  # 14 265 and 14 037 bits


def _interp() -> int:
    """List indexing, small-int arithmetic and dict stores."""
    table, seen, acc = _TABLE, {}, 0
    for i in range(3000):
        k = table[(i * 37) & 4095]
        acc = (acc + k * i) % 1000003
        seen[k & 255] = acc
    return acc


def _bigint() -> int:
    """Multiplication and exact division of 14 000-bit integers."""
    acc = 0
    for _ in range(2):
        acc ^= (_X * _Y) // _Y & 0xFFFF
    return acc


# kind -> (chunk, seconds it takes on the reference host in its faster state)
CHUNKS = {"interp": (_interp, 0.00075), "bigint": (_bigint, 0.00095)}


class Calibrator:
    """Times operations in wall seconds and in calibrated seconds."""

    def __init__(self, kind: str) -> None:
        self._chunk, self._ref = CHUNKS[kind]
        self._speeds: list[float] = []
        self._spent = 0.0
        for _ in range(20):  # let the interpreter specialise the chunk
            self._chunk()

    def _sample(self) -> float:
        start = time.perf_counter()
        self._chunk()
        took = time.perf_counter() - start
        self._speeds.append(self._ref / took)
        return took

    def _tick(self, signum, frame) -> None:
        self._spent += self._sample()

    def timed(self, fn, *args):
        """(fn(*args), wall seconds, calibrated seconds)."""
        self._speeds, self._spent = [], 0.0
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= self._spent
        self._sample()
        return result, wall, wall * sum(self._speeds) / len(self._speeds)


def import_child(src: str, kind: str) -> None:
    """Run in a fresh interpreter: print the calibrated and the wall time
    of importing tauseq.cli from src."""
    sys.path.insert(0, src)
    _, wall, calibrated = Calibrator(kind).timed(importlib.import_module,
                                                  "tauseq.cli")
    print(calibrated, wall)
