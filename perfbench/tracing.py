"""In-memory spans for the traced run.

Spans are recorded by the benchmark around the public layer calls it
makes; nothing inside the program is instrumented.  A layer's self time
is its span's duration minus the part of that interval its child spans
cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in :attr:`Tracer.spans`, -1 for a root
    parent: int
    op: int


class Tracer:
    """Records spans and counts, tagged with the current operation id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``(op, name, value)`` counts taken at the same call boundaries
        self.counts: list[tuple[int, str, float]] = []
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, 0.0, 0.0, parent, self.op)
        self.spans.append(s)
        self._stack.append(index)
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.op, name, value))

    def write(self, path: Path) -> None:
        """Write every span and count once, at the end of the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "spans": [asdict(s) for s in self.spans],
                    "counts": [list(c) for c in self.counts],
                }
            )
        )


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_lo is None or a > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span], ops: Optional[set[int]] = None) -> dict[str, float]:
    """Total self time per span name, over the spans of ``ops`` (all if None)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if ops is not None and s.op not in ops:
            continue
        out[s.name] += (s.end - s.start) - covered(children[i], s.start, s.end)
    return dict(out)
