"""Host speed, measured inside each worker while it runs its requests.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-40% within seconds, and every workload, the interpreter start and this
kernel slow down together (see NOTES.md).  A worker runs ``kernel()``, a
fixed piece of pure Python that uses nothing of the program, right after the
import, before any request that starts ``EVERY_S`` or more after the last
sample, and after the request list.  Each time the worker measures is then
scaled by ``REFERENCE_S / median`` of the ``NEAR`` samples nearest to it, so
it is reported in seconds of a host on which the kernel takes
``REFERENCE_S``.  Calibration runs outside every timed region.
"""

import bisect
import statistics
import time
from fractions import Fraction

# The kernel's median time on the two-vCPU x86-64 host that the bounds in
# BENCHMARK.json were set on.  Any constant would do: it only fixes the scale.
REFERENCE_S = 0.0025
EVERY_S = 0.1
NEAR = 5  # samples per scale: about half a second of the host's speed


def kernel():
    """The operations the program is made of: dicts keyed by tuples, exact
    fractions, big-integer arithmetic, sorting and a small-integer loop."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 400):
        table[(i % 37, i * 7919 % 1009)] = i * i
        acc += Fraction(i % 13 + 1, i)
    ordered = sorted(table.values(), reverse=True)
    big = 3**500
    for i in range(200):
        big = (big * 12345 + i) % 7**400
    small = 0
    for i in range(3000):
        small += i * i % 7
    return len(ordered), acc, big, small


class Sampler:
    """Kernel times taken across one worker, and the start of each request."""

    def __init__(self):
        self.at = []  # midpoint of each sample
        self.took = []  # its duration
        self.starts = []
        self.due = 0.0

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.due = t1 + EVERY_S

    def edge(self):
        """NEAR samples in a row: after the import and after the list."""
        for _ in range(NEAR):
            self.sample()

    def between(self):
        """run_pass calls this before each request."""
        if time.perf_counter() >= self.due:
            self.sample()
        self.starts.append(time.perf_counter())

    def scale_at(self, t):
        """The factor that turns seconds measured around time t into
        reference seconds."""
        i = bisect.bisect(self.at, t)
        lo = max(0, min(i - NEAR // 2, len(self.at) - NEAR))
        return REFERENCE_S / statistics.median(self.took[lo:lo + NEAR])

    def request_scales(self, latencies):
        return [self.scale_at(start + latency / 2) for start, latency in zip(self.starts, latencies)]
