"""Job timing that is calibrated against the speed of the machine.

On a shared host the speed of this process changes by up to 2x from one
few-second phase to the next, for CPU time as much as for wall time, so a
raw timing follows the neighbours more than the program.  The stopwatch
here keeps sampling the machine's speed while it times a job: at the start
and the end, and every PERIOD_S seconds in between from a timer signal, it
times a fixed reference chunk of work of the kind dtflat's expression
kernel does (a sparse product of polynomials with Fraction coefficients).
The job's own time, without the samples, is then scaled by the mean
sampled speed.  The result is in nominal seconds: the seconds the job
takes on a machine on which the reference chunk takes REF_S seconds.

Times are taken as the CPU time of this process.  For this one-threaded,
CPU-bound program that equals its wall time on an idle machine; on a
virtual machine that accounts steal time, it leaves out the time the host
gives this CPU to others, which no speed sample could see.

The same timer signal enforces the job's wall-time cap: when the cap has
passed, the handler raises ``JobTimeout`` inside the job.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter, process_time

PERIOD_S = 0.05
# The reference chunk's time in the fast phase of a 2-vCPU shared x86-64
# host running Python 3.11; nominal seconds are seconds at that speed.
REF_S = 0.0008

_TERMS = [((i, j), Fraction(i + 1, j + 2)) for i in range(4) for j in range(4)]


def _chunk() -> dict:
    out = {}
    for (i, j), c in _TERMS:
        for (k, l), d in _TERMS:
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return out


class JobTimeout(BaseException):
    """Raised when a job's cap has passed.  Not an Exception, so no
    handler inside dtflat can swallow it."""


class Stopwatch:
    """Times one job at a time.  With ``sample=False`` it only enforces
    the cap and measures CPU seconds (for the traced run, whose spans must
    not contain the samples)."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.deadline = float("inf")
        self.speeds: list = []
        self.spent = 0.0        # seconds spent in samples inside the job
        self._busy = False

    def _measure_speed(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = process_time()
        _chunk()
        self.speeds.append(REF_S / (process_time() - t0))
        if enabled:
            gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:      # a signal that arrived during a sample
            return
        if not self.sample or perf_counter() >= self.deadline:
            raise JobTimeout
        t0 = process_time()
        self._busy = True
        self._measure_speed()
        self._busy = False
        self.spent += process_time() - t0

    def start(self, cap: float | None = None) -> None:
        self.speeds, self.spent, self._busy = [], 0.0, False
        if self.sample:
            self._measure_speed()
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.deadline = perf_counter() + cap if cap is not None else float("inf")
        self.t0 = process_time()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        elif cap is not None:
            signal.setitimer(signal.ITIMER_REAL, cap)

    def stop(self) -> tuple:
        """Stops the timer; returns the job's CPU seconds (without the
        samples) and its nominal seconds (None without sampling)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        raw = process_time() - self.t0 - self.spent
        if not self.sample:
            return raw, None
        self._measure_speed()
        return raw, raw * sum(self.speeds) / len(self.speeds)
