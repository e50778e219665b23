"""Machine speed measured while the benchmark runs, to normalise its times.

On a 2-vCPU Xeon virtual machine whose host is shared, the same pass took
20% to 35% longer from one minute to the next while the code and the
inputs stayed the same.  A fixed reference loop slows down with it.  The
benchmark therefore reports its times in seconds at a nominal speed, the
one at which the reference loop takes ``NOMINAL_S``: a time measured
while the loop took twice as long counts half.  A change to mvcode moves
a normalised time as it moves the wall time; a slower or faster machine
moves it much less.  The raw seconds are reported alongside.

The loop is plain integer arithmetic on a few locals.  A loop that builds
dicts and lists like mvcode does tracks the machine a little better, but
it also slows down when the code being timed fills the caches, so a
change to mvcode's memory use would leak into the normalised time.
"""

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.02
REFERENCE_ITERATIONS = 2000
NOMINAL_S = 200e-6  # about the loop's time on a 2.1 GHz Xeon vCPU


def _reference():
    x = 0
    for i in range(REFERENCE_ITERATIONS):
        x ^= (i * i) & 0xFFFF
    return x


def reference_durations(count=10):
    """Durations of ``count`` back-to-back runs of the reference loop."""
    out = []
    for _ in range(count):
        start = perf_counter()
        _reference()
        out.append(perf_counter() - start)
    return out


def normalised_short(wall_s, samples):
    """A run of a fraction of a second, in seconds at nominal speed, from
    reference samples taken just before and after it by the same process;
    the median discards a sample that an interrupt lengthened."""
    return (wall_s - sum(samples)) * NOMINAL_S / statistics.median(samples)


class SpeedSampler:
    """Context manager: samples the reference loop's duration during its body."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        self.samples += reference_durations(1)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalised(self, wall_s):
        """``wall_s`` less the sampling time, in seconds at nominal speed.

        Samples are evenly spaced in wall time, so averaging nominal over
        measured duration weights every slice of the pass by its length.
        """
        if not self.samples:
            raise ValueError("pass too short to sample the machine speed")
        work_s = wall_s - sum(self.samples)
        return work_s * statistics.fmean(NOMINAL_S / s for s in self.samples)
