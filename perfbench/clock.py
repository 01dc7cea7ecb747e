"""Timings corrected for the host's speed.

The host's speed drifts: on a shared 2-core x86 VM the same loop takes
from 0.64x to 1.3x of its median, and the level moves over seconds, so
runs made minutes apart disagree by a third however long each one is.
Two probe timings a few milliseconds apart agree far better than two a
few seconds apart.  So a timed call sits between two timings of a fixed
probe that calls none of the program (:func:`probe`), and is also
reported in reference seconds: its time times :data:`PROBE_REFERENCE_S`
over the mean of its two probes.  A change to the program moves the
call and not the probe; a drift in host speed moves both.  Over five
12 s runs of cold-build on that host, the median-based op time spread
(interquartile range over median) 0.03 scaled this way, against 0.15 to
0.22 unscaled or scaled by each run's median probe.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

#: Probe time on the reference host; scaled times are in its units.
PROBE_REFERENCE_S = 0.010


def probe() -> float:
    """Time a fixed mix of small-object, dict, set and sort work, the kind
    the compiler does, that calls no code of the program.  The collector
    is off, so the program's heap does not change the probe's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: dict[int, list[tuple[int, str]]] = {}
        for i in range(12000):
            key = (i * 7919) % 12007
            table.setdefault(key & 255, []).append((key, str(key)))
        total = 0
        for bucket in sorted(table.values(), key=len):
            total += len({s for _k, s in bucket}) + sum(k for k, _s in sorted(bucket))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class Timing:
    seconds: float
    #: ``seconds`` on the reference host, by the probes on either side
    reference_s: float

    def __add__(self, other: Timing) -> Timing:
        return Timing(self.seconds + other.seconds, self.reference_s + other.reference_s)


def timed(call: Callable[[], Any]) -> tuple[Any, Timing]:
    """Run ``call`` between two probes."""
    before = probe()
    start = perf_counter()
    out = call()
    seconds = perf_counter() - start
    after = probe()
    return out, Timing(seconds, seconds * PROBE_REFERENCE_S / ((before + after) / 2))


class Steps:
    """Times a long operation's calls one by one, each between its own
    probes, so the probes stay seconds closer to the work they scale;
    :attr:`total` sums them."""

    def __init__(self) -> None:
        self.total = Timing(0.0, 0.0)

    def __call__(self, call: Callable[[], Any]) -> Any:
        out, timing = timed(call)
        self.total = self.total + timing
        return out
