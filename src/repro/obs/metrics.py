"""Process-wide counter / gauge / histogram registry.

Names are dotted paths (``hli.query.get_equiv_acc.none``); hot call
sites pass the varying suffix as a separate ``label`` argument so the
disabled fast path returns **before** any string concatenation::

    metrics.inc("hli.query.get_equiv_acc", result.value)

Like :mod:`repro.obs.trace`, the registry is off by default: every
mutator checks one module-level boolean and returns immediately, and the
no-op tests assert that a disabled compile leaves the registry
bit-for-bit empty.

Metric kinds
------------
* **counter** — monotonically increasing int (:func:`inc` / :func:`add`);
* **gauge**   — last-written value (:func:`gauge`);
* **histogram** — distribution summary (:func:`observe`): count, sum,
  min, max, and a bounded sample reservoir for percentile estimates.
"""

from __future__ import annotations

import threading
from typing import Optional

__all__ = [
    "inc",
    "add",
    "gauge",
    "observe",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "counters",
    "gauges",
    "histograms",
    "snapshot",
    "mutations",
    "Histogram",
]

_enabled: bool = False

#: Serializes registry mutations.  Acquired only *after* the enabled
#: check, so the disabled fast path stays a single boolean test; the
#: read-modify-write updates below are not atomic under free-threaded
#: access, and threads sharing one session mutate it concurrently.
_lock = threading.Lock()

_counters: dict[str, int] = {}
_gauges: dict[str, float] = {}
_hists: dict[str, "Histogram"] = {}

#: Total registry mutations ever applied (diagnostic for the no-op tests).
_mutations: int = 0

#: Samples kept per histogram for percentile estimation.
RESERVOIR = 4096


class Histogram:
    """Running distribution summary with a bounded sample reservoir."""

    __slots__ = ("count", "total", "min", "max", "samples", "_stride", "_skip")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: list[float] = []
        # Once the reservoir is full, keep every _stride-th observation
        # (deterministic decimation; no RNG so runs are reproducible).
        self._stride = 1
        self._skip = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._skip += 1
        if self._skip >= self._stride:
            self._skip = 0
            self.samples.append(value)
            if len(self.samples) >= RESERVOIR:
                self.samples = self.samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (0..100) from the reservoir."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        idx = min(len(ordered) - 1, max(0, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[idx]

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


# -- mutators (all carry the disabled fast path first) ------------------------


def inc(name: str, label: Optional[str] = None, n: int = 1) -> None:
    """Increment counter ``name`` (or ``name.label``) by ``n``."""
    if not _enabled:
        return
    global _mutations
    if label is not None:
        name = name + "." + label
    with _lock:
        _mutations += 1
        _counters[name] = _counters.get(name, 0) + n


def add(name: str, n: int) -> None:
    """Add ``n`` to counter ``name`` (skips zero so exports stay tidy)."""
    if not _enabled or n == 0:
        return
    global _mutations
    with _lock:
        _mutations += 1
        _counters[name] = _counters.get(name, 0) + n


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value``."""
    if not _enabled:
        return
    global _mutations
    with _lock:
        _mutations += 1
        _gauges[name] = value


def observe(name: str, value: float) -> None:
    """Record one observation into histogram ``name``."""
    if not _enabled:
        return
    global _mutations
    with _lock:
        _mutations += 1
        h = _hists.get(name)
        if h is None:
            h = _hists[name] = Histogram()
        h.observe(value)


# -- switches -----------------------------------------------------------------


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    return _enabled


def reset() -> None:
    """Clear every recorded metric (keeps the switch)."""
    _counters.clear()
    _gauges.clear()
    _hists.clear()


# -- introspection ------------------------------------------------------------


def counters() -> dict[str, int]:
    return dict(_counters)


def gauges() -> dict[str, float]:
    return dict(_gauges)


def histograms() -> dict[str, Histogram]:
    return dict(_hists)


def mutations() -> int:
    """Total registry mutations ever applied in this process."""
    return _mutations


def snapshot() -> dict:
    """JSON-ready view of the whole registry, keys sorted."""
    return {
        "counters": {k: _counters[k] for k in sorted(_counters)},
        "gauges": {k: _gauges[k] for k in sorted(_gauges)},
        "histograms": {k: _hists[k].to_dict() for k in sorted(_hists)},
    }
