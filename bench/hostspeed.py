"""Host-speed probe: divides the host's speed out of every timed interval.

The host's speed moves by up to ~1.9x, within a second as well as over
minutes, for all code in the process.  So the benchmark times a fixed piece
of pure-Python work (the probe: the library's kinds of work) between ops,
and reports each interval scaled by REF_S / (the probe's time around it):
the time it would have taken on a host on which one probe takes REF_S.  The probe is
the benchmark's code, not the library's, so a change to the library moves the
scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from fractions import Fraction

REF_S = 0.2e-3  # the reference host: one probe takes 0.2 ms (a quiet 2-vCPU x86 VM)
CHILD_REF_S = 0.018  # the reference host: a bare `python -S -c pass` takes 18 ms
FRESH_S = 1e-3  # a probe this recent still stands for the host's speed now


def _fractions():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 60):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(2, 3)
        seen[i % 13] = acc
    return acc


# a 16-dimensional product table with signs, in the shape of a Clifford
# algebra's, and two sparse rational vectors for _kernel to multiply
_TABLE = [[((i ^ j), -1 if bin(i & j).count("1") % 2 else 1) for j in range(16)]
          for i in range(16)]
_X = [Fraction(k % 5 - 2, k % 3 + 1) if k % 3 else 0 for k in range(16)]
_Y = [Fraction(k % 7 - 3, k % 2 + 1) if k % 2 else 0 for k in range(16)]


def _kernel():
    """A product of two vectors by table lookups, as an algebra kernel does."""
    out = [0] * 16
    nz = [(j, y) for j, y in enumerate(_Y) if y]
    for i, x in enumerate(_X):
        if x:
            row = _TABLE[i]
            for j, y in nz:
                k, sign = row[j]
                out[k] += x * y * sign
    return out


def _ints():
    seen = {}
    s = 0
    for i in range(600):
        s = (s * 31 + i) % 1000003
        seen[s % 97] = seen.get(s % 97, 0) + 1
    return sorted(seen.items())[:3]


def probe(clock):
    """Seconds one probe takes now: the geometric mean over three kinds of
    work (Fraction sums, a table-driven product kernel, int and dict work),
    each the fastest of three runs so that an interrupt does not count.  The
    mix slows with the host about as the library's ops do; the Fraction sums
    alone slowed ~1.3x as much as them."""
    product = 1.0
    for part in (_fractions, _kernel, _ints):
        best = float("inf")
        for _ in range(3):
            t0 = clock()
            part()
            best = min(best, clock() - t0)
        product *= best
    return product ** (1 / 3)


def child_probe(clock, env):
    """Seconds a bare `python -S -c pass` child takes now: the probe of work
    done in fresh processes, which an in-process probe tracks poorly."""
    t0 = clock()
    subprocess.run([sys.executable, "-S", "-c", "pass"], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    return clock() - t0


class Meter:
    """Probes taken between ops, and the scale of the interval between two.

    The speed moves within a second, so an interval is scaled by the probes
    right before and right after it: wider windows of probes tracked it worse.
    """

    def __init__(self, clock, take=probe, ref_s=REF_S):
        self.clock = clock
        self.take = take  # clock -> seconds the probe took
        self.ref_s = ref_s
        self.times = []  # when each probe ended
        self.probes = []

    def tick(self):
        """Probe now, unless the last probe ended less than FRESH_S ago."""
        if not self.times or self.clock() - self.times[-1] >= FRESH_S:
            self.probes.append(self.take(self.clock))
            self.times.append(self.clock())

    def scale(self, t0, t1):
        """ref_s over the mean of the last probe before t0 and the first
        after t1."""
        before = bisect.bisect_right(self.times, t0) - 1
        after = bisect.bisect_left(self.times, t1)
        return self.ref_s / statistics.mean([self.probes[before], self.probes[after]])

    def median_probe(self):
        return statistics.median(self.probes)
