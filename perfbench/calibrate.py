"""A fixed piece of interpreter work that tracks the host's speed.

The machines this benchmark runs on share their cores with other tenants,
and the same op can take twice as long from one minute to the next.  The
worker therefore times this routine between ops, at least every PERIOD_S
and around every op longer than that, and expresses every op time in
reference seconds:

    reference seconds = measured seconds * REFERENCE_S / calibration time

where the calibration time is the mean of the samples just before and just
after the op.  Samples are not taken inside an op: the op's heap and
garbage would change what they measure.  The routine is the benchmark's
own code and calls nothing in tysem, so a change to tysem moves op times
but not this routine.  It builds and walks frozen dataclasses recursively
with `match`, dicts and strings, like the program's ASTs.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from time import perf_counter

# A fixed constant, close to one sample's duration on a quiet 2.1 GHz host.
REFERENCE_S = 0.0004
PERIOD_S = 0.1


@dataclass(frozen=True)
class _Leaf:
    name: str


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def _build(depth: int, i: int):
    if depth == 0:
        return _Leaf(f"x{i}")
    return _Node(_build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1))


def _walk(tree, env: dict) -> int:
    match tree:
        case _Leaf(name):
            env[name] = env.get(name, 0) + 1
            return len(name)
        case _Node(left, right):
            return _walk(left, env) + _walk(right, env)
    raise AssertionError(tree)


def _once() -> float:
    # Collections stay off during a sample: the routine's allocations would
    # otherwise set off a collection of the previous op's garbage on the
    # sample's clock.  It frees all it allocates, so the program's
    # collection schedule is the same as without it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _walk(_build(7, 0), {})
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def sample() -> float:
    """Seconds one round of the routine takes now: the median of three, so
    an interrupt during one of them does not count."""
    return sorted(_once() for _ in range(3))[1]


class SpeedMeter:
    """Calibration samples taken between ops, at most PERIOD_S apart."""

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.tick()

    def tick(self):
        self.times.append(perf_counter())
        self.speeds.append(sample())

    def tick_if_due(self):
        if perf_counter() - self.times[-1] >= PERIOD_S:
            self.tick()

    def reference_seconds(self, start: float, seconds: float) -> float:
        """Rescale by the mean of the last sample before the op and the
        first one after it."""
        i = bisect_right(self.times, start)
        speeds = self.speeds[max(i - 1, 0):i + 1]
        return seconds * REFERENCE_S / statistics.fmean(speeds)
