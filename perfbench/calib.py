"""Machine-speed calibration for the end-to-end timings.

The shared 2-vCPU boxes this benchmark runs on drift in speed by 30% or more
for tens of seconds to minutes at a time. CPU time drifts with wall time, so
the drift is the processor's speed, not time stolen by other guests. Raw
wall-clock medians from two runs a few minutes apart can therefore differ by
more than any useful regression bound.

So every op is bracketed by a fixed pure-Python kernel, and an op that runs
in the worker is also sampled once a second while it runs (`Sampler`), so a
drift inside a 10-second op is seen too. The op's wall time, less the time
the samples took, is rescaled by REFERENCE_S / the mean of its kernel
samples. The result is the wall time at the speed the reference box had when
REFERENCE_S was measured. The kernel is code of the benchmark, so no change to the
program can move it. Raw wall times are printed beside the calibrated ones.
"""

import signal
import statistics
import time

# Median kernel time over about 6,000 samples taken during benchmark runs on
# the reference box: "Intel(R) Xeon(R) Processor", 2 vCPUs, CPython 3.11.7.
REFERENCE_S = 0.0050


def kernel_seconds() -> float:
    """Median of three timings of a fixed interpreter-bound loop (~3 ms each)."""
    return statistics.median(_kernel() for _ in range(3))


def _kernel() -> float:
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(30000):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - t0


def calibrated(seconds: float, kernels) -> float:
    return seconds * REFERENCE_S / statistics.mean(kernels)


class Sampler:
    """Times the kernel from SIGALRM every `period` seconds while entered.

    Python runs the handler between bytecodes of the main thread, so the op
    pauses for the ~10 ms a sample takes; `spent` adds those pauses up so the
    caller can take them off the op's wall time.
    """

    def __init__(self, period: float = 1.0):
        self.period = period
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
