"""Host-speed correction for pass times.

On the reference host (2 vCPUs shared with other tenants) the interpreter's
speed switches between levels up to about 1.8x apart, in phases of seconds
to minutes, and at times the process waits for a processor.  A pass's
median time then moved by up to 40% between runs of the same code, which
no run length fixes.  So every timed interval runs under a `SpeedProbe`: a
SIGALRM handler runs a fixed reference loop (exact rational arithmetic and
dictionary work, like hypdom's own) in the measured thread every INTERVAL_S
and records its CPU time.  The interval, less the time the thread waited
for a processor and less the reference loop's own share, divided by the
loop's mean slowdown against REFERENCE_S, is the time it would have taken
on the host at its fast level with no other tenant.  A change to hypdom
moves that time; a change of the host's speed does not.
"""

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
# reference-loop time at the fast level of the reference host (Intel Xeon,
# Python 3.11); corrected times read as seconds at that speed
REFERENCE_S = 0.00120


def reference_loop():
    """(start, CPU seconds) of one run of the reference loop."""
    t0, c0 = time.perf_counter(), time.process_time()
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 97 + 1)
        table[(i % 13, i % 11)] = acc
    return t0, time.process_time() - c0


def runqueue_wait():
    """Seconds this thread has spent runnable but waiting for a processor,
    from /proc/self/schedstat; 0 where the kernel does not report it."""
    try:
        with open("/proc/self/schedstat") as fh:
            return int(fh.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return 0.0


class SpeedProbe:
    """Context manager: runs the reference loop three times on entry and
    then every INTERVAL_S until exit, from a SIGALRM handler, so that it
    runs in the measured thread and on its processor."""

    def __enter__(self):
        self.samples = [reference_loop() for _ in range(3)]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _sample(self, signum, frame):
        self.samples.append(reference_loop())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self):
        """Mean CPU time of the reference loop over REFERENCE_S."""
        return statistics.fmean(c for _, c in self.samples) / REFERENCE_S

    def corrected(self, seconds, start, end):
        """`seconds` of processor time spent from `start` to `end`
        (perf_counter values inside the probe), less the reference loop's
        share of it, scaled to the reference speed."""
        busy = sum(c for t, c in self.samples if start <= t < end)
        return (seconds - busy) / self.slowdown()
