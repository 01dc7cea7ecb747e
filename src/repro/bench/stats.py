"""Statistical primitives for benchmark reporting.

One implementation of median / quartile / spread math, shared by the
``repro-bench`` runner and reports, the ``hli-report`` speedup table,
and the repository benchmark in ``perfbench/`` — so every number in
TRAJECTORY.md is computed the same way.

Conventions (kept deliberately boring so fixtures can be hand-checked):

* ``median`` — the usual midpoint rule (mean of the two central values
  for even ``n``);
* quartiles — the *inclusive* linear-interpolation rule
  (``statistics.quantiles(..., method="inclusive")``), i.e. Q1 of
  ``[1, 2, 3, 4]`` is 1.75;
* ``stddev`` — the **sample** standard deviation (``n - 1`` divisor),
  0.0 for fewer than two values;
* ``percentile(p)`` — nearest-rank with linear interpolation between
  the two neighbouring order statistics, so ``percentile(50)`` equals
  ``median`` exactly.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["Summary", "geomean", "percentile", "summarize"]


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = p / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; every value must be positive."""
    vals = list(values)
    if not vals:
        raise ValueError("geomean of an empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


@dataclass(frozen=True)
class Summary:
    """Distribution summary of one measured metric."""

    count: int
    mean: float
    median: float
    stddev: float
    min: float
    max: float
    q1: float
    q3: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "Summary":
        if not values:
            raise ValueError("cannot summarize an empty sequence")
        vals = [float(v) for v in values]
        if len(vals) == 1:
            v = vals[0]
            return cls(1, v, v, 0.0, v, v, v, v)
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
        return cls(
            count=len(vals),
            mean=statistics.fmean(vals),
            median=statistics.median(vals),
            stddev=statistics.stdev(vals),
            min=min(vals),
            max=max(vals),
            q1=q1,
            q3=q3,
        )

    def to_dict(self, digits: int = 6) -> dict:
        doc = {
            "count": self.count,
            "mean": round(self.mean, digits),
            "median": round(self.median, digits),
            "stddev": round(self.stddev, digits),
            "iqr": round(self.iqr, digits),
            "min": round(self.min, digits),
            "max": round(self.max, digits),
            "q1": round(self.q1, digits),
            "q3": round(self.q3, digits),
        }
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Summary":
        return cls(
            count=int(doc["count"]),
            mean=float(doc["mean"]),
            median=float(doc["median"]),
            stddev=float(doc["stddev"]),
            min=float(doc["min"]),
            max=float(doc["max"]),
            q1=float(doc["q1"]),
            q3=float(doc["q3"]),
        )


def summarize(values: Sequence[float]) -> Summary:
    """Shorthand for :meth:`Summary.from_values`."""
    return Summary.from_values(values)
