"""Host speed reference, timed next to the program under test.

The measuring host's speed drifts: for minutes at a time a fixed
pure-Python loop and the program both run up to 35 % slower.  So every
end-to-end time the benchmark reports is given at the reference speed: the
measured time multiplied by ``REFERENCE_S`` over the median time of
``reference()`` calls made alongside it, in the same process where
possible.  The two slow down together, so the ratio keeps what the program
does and drops most of the drift.  The times as measured go to the run
record.

This module imports nothing but ``time``, so that loading it before a
timed import does not pre-load modules the package needs.
"""

from time import perf_counter

# Median time of one ``reference()`` call over nine minutes (11,662 calls)
# on a 2-vCPU KVM guest (Intel Xeon, 2.1 GHz), Python 3.11.7.
REFERENCE_S = 1.6e-3

# Fewest samples behind one scale factor.
MIN_SAMPLES = 21


def reference() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def sample() -> float:
    """Time of one ``reference()`` call, in seconds."""
    start = perf_counter()
    reference()
    return perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor that brings a time measured alongside ``samples`` to the
    reference speed."""
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        median = ordered[mid]
    else:
        median = (ordered[mid - 1] + ordered[mid]) / 2
    return REFERENCE_S / median
