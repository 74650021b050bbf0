"""Machine speed, measured next to the ops, so that op times can be scaled to
a fixed reference speed.

The benchmark runs on a shared virtual machine whose speed swings by up to
2x with the load of other tenants, in stretches of a second to a minute.
The slowdown is inside the CPU (the op's CPU time grows as much as its wall
time), so CPU time does not remove it.  ``Speedometer`` times a fixed
pure-Python kernel at most every INTERVAL_S seconds, between ops and never
inside an op timer, and ``factor(t)`` gives REF_KERNEL_S over the kernel's
time around ``t``: multiplying an op's wall time by it gives the op's time
at the speed at which the kernel takes REF_KERNEL_S.  The kernel mixes the
interpreter work the library does (Fraction arithmetic as in elimination
over QQ, dicts keyed by tuples as in words and monomials, list indexing and
integer arithmetic as in GF(p) elimination), and it imports nothing from
the library, so a change to the library does not change it.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

# Time of one kernel call at full speed on the machine of record (a shared
# 2-vCPU Linux VM, Python 3.11.7); scaled times are wall times at that speed.
REF_KERNEL_S = 0.00039
REPEATS = 3  # kernel calls per sample; the sample is their median
INTERVAL_S = 0.1  # slow and fast stretches last a second or more


def kernel():
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    words: dict = {}
    for i in range(600):
        key = (i % 17, i % 5, "ab"[i & 1])
        words[key] = words.get(key, 0) + i
    row = [0] * 64
    for i in range(1200):
        row[i & 63] = (row[(i * 7) & 63] * 31 + i) % 1000003
    return acc, words, row


class Speedometer:
    """Kernel times sampled through a run, and the scale factor they give."""

    def __init__(self):
        self.at: list = []  # perf_counter() at the end of each sample
        self.kernel_s: list = []  # median kernel time of each sample

    def sample(self):
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        self.at.append(time.perf_counter())
        self.kernel_s.append(sorted(times)[REPEATS // 2])

    def tick(self):
        """Take a sample if the last one is older than INTERVAL_S."""
        if not self.at or time.perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, t):
        """REF_KERNEL_S over the mean kernel time of the samples just before
        and just after time ``t``."""
        i = bisect.bisect_left(self.at, t)
        before = self.kernel_s[max(i - 1, 0)]
        after = self.kernel_s[min(i, len(self.kernel_s) - 1)]
        return 2 * REF_KERNEL_S / (before + after)
