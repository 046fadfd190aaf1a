"""A calibration probe: how fast is this machine *right now*?

The sandbox this benchmark runs on changes speed in phases of seconds
to minutes - the same pure-Python loop reads 133 ms, then 235 ms, then
102 ms with nothing else running.  A timing taken in a slow phase is not
comparable with one taken in a fast phase, and medians over an 18 s run
do not average a minute-long phase away.

So the harness runs this fixed probe next to everything it times
(between batch jobs, between segments of the serve loop, after each
cold start) and reports every timing scaled to a machine on which the
probe takes ``NOMINAL_S``::

    reported = measured * NOMINAL_S / probe_seconds_measured_beside_it

The probe mixes integer arithmetic with cache-missing reads of a 4 MiB
buffer, because the program's layers are a mix of both, and allocates
no container, so it never triggers the garbage collector on the job's
heap.  It is part of the benchmark, not of the program: a change to
``src/`` cannot move it.  On ten-run sets this took the spread of the
batch medians from 3-19 % to 2-6 % (see ``perf/README.md``); the raw,
unscaled medians are kept in ``result-*.json`` beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

#: The probe's usual duration on the sandbox the baseline was measured
#: on, so that scaled timings read as that machine's ordinary seconds.
NOMINAL_S = 0.036

_BUFFER = bytearray(1 << 22)


def probe() -> float:
    """Seconds the fixed calibration loop takes now."""
    start = time.perf_counter()
    buffer, mask = _BUFFER, len(_BUFFER) - 1
    total, at = 0, 1
    for i in range(140_000):
        at = (at * 1103515245 + 12345) & mask
        total += buffer[at] + i * i
    for i in range(140_000):
        total += i * i
    return time.perf_counter() - start


def factor(*probes: float) -> float:
    """What to multiply a timing by, given the probes taken beside it."""
    return NOMINAL_S / statistics.mean(probes)
