"""Host speed sampling: a fixed reference kernel timed during the measured work.

On a shared host the same operation's wall time drifts by up to 2x over tens
of minutes, and the host switches between faster and slower states every few
seconds.  Process CPU time moves with wall time: the host runs slower, the
process does not wait more.  Probes taken between operations miss the state
changes inside a long operation, so the benchmark samples the host speed
during the work instead: every SAMPLE_EVERY_S of process CPU time a timer
signal interrupts the work, and the handler times one run of ``kernel``.
The handler's time is taken out of the measured time, and each slice of work
between two samples is rescaled by the speed sampled in it:

    normalised seconds = measured seconds * NOMINAL_S * mean(1 / sample seconds)

The handler runs between bytecodes of the work, possibly inside a QUADPACK
integrand; scipy's quad is re-entrant (dblquad nests it), and the kernel
draws from its own generator, so the work's outputs do not change.  The
benchmark's fingerprints check this against passes run without sampling.

``NOMINAL_S`` is about the kernel's median time on a 2-vCPU Intel Xeon
virtual machine (Python 3.11, numpy 2.4, scipy 1.17), so normalised times
read as seconds on that host.  The kernel does fixed work, independent of the
workload seed and of cbic: QUADPACK over a Python integrand (like the
certificate pipeline), 1024-wide numpy steps with random draws (like the
simulator's path blocks) and 32-wide numpy steps (like the narrow chains).
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np
from scipy.integrate import quad

NOMINAL_S = 0.0065
SAMPLE_EVERY_S = 0.1


def _integrand(u: float, k: float) -> float:
    return math.exp(-k * u) * u ** 0.3 / (1.0 + u * u)


def kernel() -> float:
    rng = np.random.default_rng(20220531)
    acc = 0.0
    for k in range(20):
        acc += quad(_integrand, 0.0, 2.0, args=(1.0 + 0.001 * k,))[0]
    x = np.ones(1024)
    for _ in range(50):
        z = rng.standard_normal(1024)
        x = np.maximum(x + 0.01 * (0.6 - 0.5 * x) + 0.1 * np.sqrt(x) * z, 0.0)
        acc += float(x.mean())
    y = np.ones(32)
    for _ in range(120):
        z = rng.standard_normal(32)
        y = np.maximum(y + 0.01 * (0.6 - 0.5 * y) + 0.1 * np.sqrt(y) * z, 0.0)
        acc += float(y[0])
    return acc


class Sampler:
    """Samples the host speed on a CPU-time timer while it is started."""

    def __init__(self):
        kernel()  # first-call costs, kept out of the samples
        self.spent_s = 0.0  # time spent sampling
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.inv_sum = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.n += 1
        self.inv_sum += 1.0 / (t1 - t0)
        self.spent_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def net_clock(self) -> float:
        """perf_counter seconds without the time spent sampling."""
        return time.perf_counter() - self.spent_s

    def speed_factor(self) -> float:
        """Nominal over measured speed, averaged over the work since the last reset."""
        if self.n == 0:  # work shorter than one timer period
            self.sample()
        return NOMINAL_S * self.inv_sum / self.n
