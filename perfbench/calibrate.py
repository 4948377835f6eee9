"""The machine's speed, sampled while each operation runs.

The 2-core virtual machine the benchmark was tuned on runs the same code
20-50% slower for stretches of seconds to a minute.  Process CPU time rises
with wall time in those stretches, so the time is not taken by other
guests; the guest has no hardware counters to count instructions instead.
Wall times of one operation spread by about 0.2 in log from call to call,
and the sum of a workload's operations by 0.15-0.30 (quartile spread over
median) from run to run.

A fixed calibration kernel that shares nothing with ``dirinfo`` is timed
right before and right after each operation and, from a ``SIGALRM``
handler, every ``PERIOD_S[kind]`` while it runs.  The kernel's mean time over
those samples measures how slow the machine ran during the call.  The
operation's calibrated time is its own time (the handler's time taken out)
scaled by ``nominal / mean kernel time``: the wall time the call would
have taken at the machine's usual speed.  A change to the program moves
the operation's time and not the kernel's, so it moves the calibrated time
in full.

Two kernels match the two kinds of work in the workloads, since one
slows with the other only in part (a log-log slope of about 0.5 for the
first kernel against ``evaluate``'s operations):

- ``python``: 50 steps of 8x8 numpy arithmetic in a Python loop, like the
  solvers' iterations and the verify suites' small kernels, sampled every
  10 ms;
- ``array``: one log-and-multiply pass over a 4 MB array, like the large
  joints of ``evaluate``, sampled every 50 ms so that its own traffic stays
  a small share of the operation's.

Over repeated calls of the same operation the calibrated time spreads by
about 0.05 in log where the wall time spreads by 0.17.
"""
from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = {"python": 0.01, "array": 0.05}
# Round figures near each kernel's time on the machine the benchmark was
# tuned on, so calibrated times read as seconds at that machine's usual
# speed.  They are constants: changing one rescales every calibrated time.
NOMINAL_S = {"python": 0.0005, "array": 0.002}


class _Kernels:
    def __init__(self):
        rng = np.random.default_rng(20120204)
        self.small = rng.random((8, 8)) + 0.1
        self.large = rng.random(1 << 19) + 0.1
        self.buf = np.empty_like(self.large)

    def python(self):
        acc, a = 0.0, self.small
        for i in range(50):
            a = a / a.sum(axis=1, keepdims=True)
            acc += float(np.log(a).sum()) + i * 0.5
            a = a + 0.01
        return acc

    def array(self):
        np.log(self.large, out=self.buf)
        np.multiply(self.buf, self.large, out=self.buf)
        return float(self.buf.sum())


class SpeedProbe:
    """Times calls with the calibration kernel ``kind`` sampled around and
    inside them.  Installs a ``SIGALRM`` handler; use from the main thread."""

    def __init__(self, kind: str):
        self.nominal = NOMINAL_S[kind]
        self.period = PERIOD_S[kind]
        self._kernel = getattr(_Kernels(), kind)
        self._samples: list[float] = []
        self._active = False
        for _ in range(5):  # warm the kernel's code and arrays
            self._kernel()
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self):
        t0 = time.perf_counter()
        self._kernel()
        self._samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame):
        if self._active:
            self._active = False  # no nested sample if the next alarm comes early
            try:
                self._sample()
            finally:
                self._active = True

    def call(self, fn):
        """Run ``fn()``; return ``(result, error, raw_s, calibrated_s,
        kernel_s)``.  ``raw_s`` is the call's wall time without the samples
        taken inside it, ``kernel_s`` the mean kernel time; a raising call
        gives ``error`` (its message) and ``result`` None."""
        self._samples = []
        self._sample()
        result = error = None
        self._active = True
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            result = fn()
        except Exception as exc:  # a raising call is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        finally:
            self._active = False
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        inside = sum(self._samples[1:])
        self._sample()
        raw = t1 - t0 - inside
        kernel = sum(self._samples) / len(self._samples)
        return result, error, raw, raw * self.nominal / kernel, kernel
