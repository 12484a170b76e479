"""Run a module as ``python -m`` does, timing the speed reference meanwhile.

    python3 perfbench/sampled.py <module> [args...]

Every ``INTERVAL_S`` of wall time a timer signal interrupts the module
and the handler times one call of the reference loop (``reference.py``),
so that the samples cover the whole run, not just its ends.  At exit,
also on failure, it writes one line to stderr: ``MARKER``, the total time
spent in the handler, and the samples, all in seconds.  The caller takes
the handler's time off the process's wall time.
"""

from __future__ import annotations

import os
import runpy
import signal
import sys
from time import perf_counter

import reference

MARKER = "perfbench-reference"
INTERVAL_S = 0.1


class Sampler:
    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0

    def sample(self, *_) -> None:
        start = perf_counter()
        self.samples.append(reference.sample())
        self.handler_s += perf_counter() - start


def main() -> None:
    # as under ``python -m``: the working directory leads the path
    sys.path[0] = os.getcwd()
    module, sys.argv = sys.argv[1], sys.argv[1:]
    sampler = Sampler()
    signal.signal(signal.SIGALRM, sampler.sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        while len(sampler.samples) < reference.MIN_SAMPLES:
            sampler.sample()
        print(MARKER, sampler.handler_s, *sampler.samples, file=sys.stderr)


if __name__ == "__main__":
    main()
