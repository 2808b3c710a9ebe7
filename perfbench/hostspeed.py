"""Host speed, sampled while a pass runs, to correct the pass's times.

The measuring host changes speed by up to 1.6x within seconds, and the
mix of its speeds drifts over minutes (NOTES.md, "Spread and bounds").
Process CPU time follows wall time, so no clock of the process is immune.
An untraced pass therefore runs a fixed calibration slice, a pure-Python
loop plus two 200x200 solves, from a SIGALRM handler every
SLICE_EVERY_S of wall time, and reads all its times from a `HostClock`:

* `now()` is the *program clock*: `perf_counter()` minus the time spent
  in slices so far, so slices never count as program time.
* `reference(t)` maps program-clock times to *reference seconds*.  Each
  stretch of program time between two slices is scaled by
  REF_SLICE_S / (local slice duration), the local duration being a
  trimmed mean of the neighbouring slices.  A reference second is the
  time the program would take at the host speed at which one slice takes
  REF_SLICE_S.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

SLICE_EVERY_S = 0.05
# the slice's median duration on the measuring host (NOTES.md), so that
# reference seconds stay close to that host's wall seconds
REF_SLICE_S = 0.0018
WINDOW = 5  # slices around each one; the fastest and slowest are dropped

_rng = np.random.default_rng(20260)
_A = _rng.random((200, 200)) + 200.0 * np.eye(200)
_B = _rng.random(200)


def calibration_slice() -> None:
    """Fixed work whose duration tracks the host's speed: interpreter
    work and cache-resident BLAS, in shares of about 2:3."""
    s = 0
    for i in range(10000):
        s += i * i
    for _ in range(2):
        np.linalg.solve(_A, _B)


class HostClock:
    """Program clock of a pass plus the slice samples that correct it."""

    def __init__(self) -> None:
        self.spent = 0.0  # seconds spent in slices so far
        self.at: list[float] = []  # program-clock time of each slice
        self.dur: list[float] = []  # its duration
        self._busy = False
        self._old_handler = None

    def start(self) -> None:
        calibration_slice()  # first call pays numpy's lazy set-up
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S, SLICE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()

    def _sample(self, *_) -> None:
        if self._busy:  # an alarm that fell due during a slice
            return
        self._busy = True
        t0 = perf_counter()
        calibration_slice()
        t1 = perf_counter()
        self.at.append(t0 - self.spent)
        self.dur.append(t1 - t0)
        self.spent += t1 - t0
        self._busy = False

    def now(self) -> float:
        while True:
            spent = self.spent
            t = perf_counter()
            if spent == self.spent:  # no slice ran between the two reads
                return t - spent

    def local_slice_s(self) -> np.ndarray:
        """Trimmed mean of the slice durations around each slice."""
        dur = np.asarray(self.dur)
        half = WINDOW // 2
        padded = np.pad(dur, half, mode="edge")
        win = np.sort(np.lib.stride_tricks.sliding_window_view(padded, WINDOW), axis=1)
        return win[:, 1:-1].mean(axis=1)

    def reference(self, t) -> np.ndarray:
        """Reference seconds from the first slice to program-clock times t."""
        at = np.asarray(self.at)
        rate = REF_SLICE_S / self.local_slice_s()
        cum = np.concatenate([[0.0], np.cumsum(np.diff(at) * (rate[1:] + rate[:-1]) / 2)])
        return np.interp(np.asarray(t, dtype=float), at, cum)
