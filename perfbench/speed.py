"""Wall time at a fixed reference speed.

The benchmark machine is a share of a host whose speed drifts: the same pass
can take 3 s or 5 s within a few minutes, and CPU time drifts with wall time.
So a pass also measures how fast the machine ran while it did.

``SpeedSampler`` interrupts the timed pass every ``INTERVAL_S`` seconds with a
timer signal and runs ``reference()``, a fixed pure-Python loop that does not
touch bicayley, twice: once to warm the caches the pass has just used, and
once timed.  Each slice of the pass between two samples is divided by the
time of the sample that ends it, which counts the slice in reference-loop
lengths; ``REFERENCE_S`` converts the count back to seconds.  The result,
``wall_ref_s``, is the pass's wall time on a machine that runs the reference
loop in ``REFERENCE_S``.  A faster package gives a smaller ``wall_ref_s``; a
slower host does not.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.02
# set-up lasts 0.1 to 0.2 s, so it is sampled more often
SETUP_INTERVAL_S = 0.005
# about the timed reference call inside a pass on the baseline machine (README.md)
REFERENCE_S = 225e-6

# (begin, timed, end) of one sample: the untimed warm-up call runs from begin to
# timed, the timed call from timed to end
Stamp = tuple[float, float, float]

_PERM = tuple((7 * v + 3) % 24 for v in range(24))


def reference() -> int:
    """A fixed mix of the interpreter work bicayley does: small tuples in a
    dict, frozensets, and permutation composition with a set of seen images."""
    total = 0
    table = {}
    for i in range(400):
        table[i & 63] = (i, total & 7)
        total += table[i & 63][0] ^ (i >> 1)
    counts = {}
    for i in range(120):
        key = (i & 31, i & 7)
        counts[key] = counts.get(key, 0) + 1
        total += len(frozenset((i & 3, i & 5)))
    perm, seen = _PERM, set()
    for i in range(24):
        perm = tuple(_PERM[v] for v in perm)
        seen.add(perm)
        total += perm[i]
    return total + len(seen)


def reference_seconds(start: float, end: float, stamps: list[Stamp]) -> tuple[float, float]:
    """(wall_s, wall_ref_s) of a pass from ``start`` to ``end`` that holds the
    samples ``stamps``; the last sample may begin after ``end``.  ``wall_s``
    leaves the samples out."""
    wall = ref = 0.0
    prev = start
    for begin, timed, e in stamps:
        slice_s = min(begin, end) - prev
        wall += slice_s
        ref += slice_s / (e - timed)
        prev = e
    return wall, ref * REFERENCE_S


def setup_reference_seconds(start: float, end: float, stamps: list[Stamp]) -> float:
    """Set-up from ``start`` to ``end`` at the reference speed, the samples
    left out.  It begins before the interpreter can take samples, so the whole
    of it is counted in lengths of the median sample."""
    sampled = sum(e - begin for begin, _, e in stamps if begin < end)
    median = statistics.median(e - timed for _, timed, e in stamps)
    return (end - start - sampled) / median * REFERENCE_S


class SpeedSampler:
    """Takes a reference sample every ``interval`` seconds while started, and
    one more when stopped, so every slice of the pass has a sample after it."""

    def __init__(self, clock=time.perf_counter, interval: float = INTERVAL_S):
        self.clock = clock
        self.interval = interval
        self.stamps: list[Stamp] = []

    def sample(self, *_signal_args) -> None:
        # no collection of the pass's heap may start inside a sample
        collecting = gc.isenabled()
        gc.disable()
        begin = self.clock()
        # the first call after a slice of the pass runs on the pass's cold
        # caches, by an amount that varies; the second one is timed
        reference()
        timed = self.clock()
        reference()
        self.stamps.append((begin, timed, self.clock()))
        if collecting:
            gc.enable()

    def start(self) -> None:
        reference()  # warm: the first timed sample should not pay for compiling
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
