"""A fixed pure-Python loop that gauges the host's current speed.

The benchmark host shares its cores with other machines, and the speed of the
same Python code drifts by 20-30% from minute to minute.  Code with a small
working set and code with a large one drift differently, so the loop has one
part of each: tuple-keyed lookups in a small table, and membership tests and
dict updates over a set of about 36,000 pairs, like coxhom's pair kernels.
Timed between jobs, their sum drifts with the jobs.

Scaling a job time by ``NOMINAL_S / reference_seconds`` reports it as it would
read with the host at a fixed speed, the one at which a loop takes
``NOMINAL_S`` (about this host's usual speed).  The loop never changes, so the
scale can neither reward nor hide a change to coxhom.
"""

from __future__ import annotations

import random
import statistics
import time

NOMINAL_S = 3e-3
ROUNDS = 10

_SMALL = {(i, j): 3 + (i * j) % 4 for i in range(24) for j in range(i + 1, 24) if (i + j) % 3}
_LARGE = {(i, j) for i in range(300) for j in range(i + 1, 300) if (7 * i + j) % 5}
_rng = random.Random(0)
_PROBES = [(_rng.randrange(150), 150 + _rng.randrange(150)) for _ in range(4000)]


def _label(i: int, j: int) -> int:
    return _SMALL.get((i, j), 2)


def reference_loop() -> int:
    total = 0
    for _ in range(ROUNDS):
        odd = []
        for i in range(24):
            for j in range(i + 1, 24):
                m = _label(i, j)
                if m % 2:
                    odd.append((i, j))
                total += m
        total += len(odd)
    counts: dict[tuple[int, int], int] = {}
    for pair in _PROBES:
        if pair in _LARGE:
            counts[pair] = counts.get(pair, 0) + 1
    return total + len(counts)


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def scale(samples) -> float:
    """Factor that turns a measured time into one at the nominal speed."""
    return NOMINAL_S / statistics.median(samples)
