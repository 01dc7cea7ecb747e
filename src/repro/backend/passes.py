"""Optimization pass statistics.

:mod:`repro.driver.passes` runs the three optimizations (and rebuilds
the ``HLIQuery`` indices after they mutate the HLI tables); this module
holds the aggregate statistics container they share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cse import CSEStats
from .licm import LICMStats
from .unroll import UnrollStats

__all__ = ["OptStats"]


@dataclass
class OptStats:
    """Aggregated per-program optimization statistics."""

    cse: CSEStats = field(default_factory=CSEStats)
    licm: LICMStats = field(default_factory=LICMStats)
    unroll: UnrollStats = field(default_factory=UnrollStats)
