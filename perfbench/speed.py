"""CPU-speed sampler that scales measured times to one reference speed.

On a shared 2-core x86-64 virtual machine the speed of each virtual CPU was
seen to change by up to 1.7x, for seconds to minutes at a time, and the two
CPUs changed independently.  A fixed FFT loop shows it in CPU time as well as
in wall time.  The median round time of a 20 s run then moved by 10% to 30%
from one run to the next, and the fastest round by as much.

While a :class:`SpeedSampler` is active, a timer signal every ``INTERVAL_S``
runs a fixed numpy kernel of about a millisecond in the main thread and
records its CPU time; :meth:`SpeedSampler.sample` runs one more probe on
demand, between repetitions of a short operation.  When the timed work runs
on several CPUs at once (a process pool), the probes move from CPU to CPU in
turn, so that their mean covers all of them.  :meth:`SpeedSampler.scaled`
turns a measured interval into seconds at the reference speed: the interval,
less the probes that ran inside it, times ``REFERENCE_S`` over the mean probe
time in it and within ``PAD_S`` of it.

In a test that interleaved two kernels every 12 ms, the ratio of their times
over 20 s windows moved by under 1% while each kernel's time moved by 15%.
The kernel does not call snls, so no change to the library moves it.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

__all__ = ["REFERENCE_S", "INTERVAL_S", "probe", "SpeedSampler"]

# The probe's CPU time at the reference speed: about its fastest time on the
# machine described above, so scaled times read close to uncontended ones.
REFERENCE_S = 1.0e-3
INTERVAL_S = 0.05
PAD_S = 0.01        # probes this close to an interval also count for it
_CALLS = 25
_A = np.exp(1j * np.linspace(0.0, 6.0, 1024))


def probe() -> float:
    """CPU seconds of this thread for a fixed kernel: FFT pair and reduction, N=1024."""
    t0 = time.thread_time()
    for _ in range(_CALLS):
        s = np.fft.fft(_A)
        s *= 0.5
        float(np.sum(np.abs(np.fft.ifft(s)) ** 2))
    return time.thread_time() - t0


class SpeedSampler:
    """Probe the CPU speed every ``INTERVAL_S`` while the ``with`` block runs.

    ``rotate`` moves each probe to the next CPU this process may use.
    """

    def __init__(self, rotate: bool = False):
        self.at: list[float] = []      # perf_counter at each probe's start
        self.wall: list[float] = []    # wall seconds each probe took
        self.cpu: list[float] = []     # CPU seconds each probe took
        self._old = None
        self._busy = False
        self._cpus = sorted(os.sched_getaffinity(0)) if rotate else []

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _on_timer(self, signum, frame):
        if not self._busy:
            self.sample()

    def sample(self):
        """Run one probe now and record it."""
        self._busy = True
        allowed = None
        try:
            if self._cpus:
                allowed = os.sched_getaffinity(0)
                os.sched_setaffinity(0, {self._cpus[len(self.at) % len(self._cpus)]})
            t0 = time.perf_counter()
            cpu = probe()
            self.at.append(t0)
            self.wall.append(time.perf_counter() - t0)
            self.cpu.append(cpu)
        finally:
            if allowed is not None:
                os.sched_setaffinity(0, allowed)
            self._busy = False

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` (perf_counter) at the reference speed."""
        at = np.asarray(self.at)
        inside = (at >= start) & (at < end)
        busy = end - start - float(np.sum(np.asarray(self.wall)[inside]))
        near = (at >= start - PAD_S) & (at < end + PAD_S)
        if not near.any():
            raise RuntimeError("no speed probe near the interval; is the sampler running?")
        return busy * REFERENCE_S / float(np.mean(np.asarray(self.cpu)[near]))
