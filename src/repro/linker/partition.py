"""Whole-program partitioning for the parallel back end.

After the serial WPA step (parse + analyze + link), phase 2 — per-unit
code generation under the linked summaries — is embarrassingly parallel:
PR 6's link-salted cache keys make every per-unit artifact independent
of *where* it is compiled.  This module groups the linked units into
**partitions** that the driver fans out over forked processes, the shape
GCC's LTO calls "ltrans" (Glek & Hubička; see PAPERS.md).

Three modes:

* ``"1to1"`` — one unit per partition (maximum parallelism, maximum
  per-task overhead);
* ``"balanced"`` — greedy longest-processing-time bin packing of units
  into at most ``jobs`` partitions, weighted by an RTL-size estimate
  over each unit's functions (statement and call-site counts), or one
  partition when the units outside the heaviest bin weigh less than
  ``min_pooled`` (the share the other processes would get is too
  small to pay for them);
* ``"none"`` — a single partition holding every unit: today's serial
  path, used as the parity baseline.

Partitioning is a pure scheduling decision: the compiled output must be
identical across modes (the driver's parity oracle enforces
alpha-equivalent RTL, equal DepStats, equal lint verdicts, and a
byte-identical merged image versus ``jobs=1``).

Observability: every plan records ``wpa.partitions`` (counter) and
``wpa.partition_skew`` (gauge; max/mean partition weight, 1.0 =
perfectly balanced).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend import ast_nodes as ast
from ..obs import metrics as _metrics
from .unit import UnitAnalysis

__all__ = [
    "PARTITION_MODES",
    "PartitionPlan",
    "partition_program",
    "unit_weight",
]

PARTITION_MODES = ("none", "1to1", "balanced")


def unit_weight(unit: UnitAnalysis) -> int:
    """Back-end cost estimate for one unit.

    Statements dominate RTL size (each lowers to a handful of insns) and
    call sites add scheduling/REF-MOD work, so the estimate is
    ``Σ_fn (4 + 2·stmts + calls)`` — cheap to compute from the AST and
    monotone in the real phase-2 cost.
    """
    total = 0
    for fn in unit.program.functions:
        stmts = 0
        calls = 0
        if fn.body is not None:
            for stmt in ast.walk_stmts(fn.body):
                stmts += 1
        summary = unit.locals.get(fn.name)
        if summary is not None:
            calls = len(summary.calls)
        total += 4 + 2 * stmts + calls
    return total


@dataclass
class PartitionPlan:
    """A grouping of linked units into back-end partitions."""

    mode: str
    partitions: list[list[str]]  # unit filenames, source order within each
    weights: dict[str, int] = field(default_factory=dict)
    cross_edges: int = 0  # direct call edges crossing a partition boundary

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def load(self, part: list[str]) -> int:
        """Total weight of one partition's units."""
        return sum(self.weights.get(f, 1) for f in part)

    @property
    def skew(self) -> float:
        """Max/mean partition weight.  1.0 = perfectly balanced."""
        if len(self.partitions) <= 1:
            return 1.0
        loads = [self.load(part) for part in self.partitions]
        mean = sum(loads) / len(loads)
        if mean <= 0:
            return 1.0
        return max(loads) / mean

    def to_dict(self) -> dict:
        """JSON-ready summary (RESULTS.json, bench reports)."""
        return {
            "mode": self.mode,
            "partitions": self.n_partitions,
            "units": sum(len(p) for p in self.partitions),
            "skew": round(self.skew, 4),
            "cross_edges": self.cross_edges,
        }


def _cross_edges(units: list[UnitAnalysis], assign: dict[str, int]) -> int:
    """Count direct call edges whose caller and callee land in
    different partitions."""
    owner: dict[str, str] = {}
    for u in units:
        for name in u.locals:
            owner[name] = u.filename
    crossing = 0
    for u in units:
        for summary in u.locals.values():
            for call in summary.calls:
                target = owner.get(call.callee)
                if target is None or target == u.filename:
                    continue
                if assign[u.filename] != assign[target]:
                    crossing += 1
    return crossing


def partition_program(
    units: list[UnitAnalysis],
    mode: str = "balanced",
    jobs: int = 0,
    min_pooled: int = 0,
) -> PartitionPlan:
    """Group ``units`` into partitions for the parallel back end.

    ``jobs`` caps the partition count in ``balanced`` mode (``<= 0``
    means one partition per unit), and ``min_pooled`` is the weight the
    units outside the heaviest partition must reach there, or every
    unit lands in one partition.  Deterministic: ties break on the
    unit's position in ``units``, and each partition preserves source
    order so merged outputs are stable.
    """
    if mode not in PARTITION_MODES:
        raise ValueError(
            f"partition mode must be one of {PARTITION_MODES}, got {mode!r}"
        )
    weights = {u.filename: unit_weight(u) for u in units}
    order = {u.filename: i for i, u in enumerate(units)}
    if mode == "none" or len(units) <= 1:
        partitions = [[u.filename for u in units]] if units else []
    elif mode == "1to1":
        partitions = [[u.filename] for u in units]
    else:  # balanced: greedy LPT over unit weights
        n_bins = len(units) if jobs <= 0 else max(1, min(jobs, len(units)))
        bins: list[list[str]] = [[] for _ in range(n_bins)]
        loads = [0] * n_bins
        ranked = sorted(
            units, key=lambda u: (-weights[u.filename], order[u.filename])
        )
        for u in ranked:
            lightest = min(range(n_bins), key=lambda i: (loads[i], i))
            bins[lightest].append(u.filename)
            loads[lightest] += weights[u.filename]
        if sum(loads) - max(loads) < min_pooled:
            bins = [[u.filename for u in units]]
        partitions = [sorted(b, key=order.__getitem__) for b in bins if b]
    assign = {f: pi for pi, part in enumerate(partitions) for f in part}
    plan = PartitionPlan(
        mode=mode,
        partitions=partitions,
        weights=weights,
        cross_edges=_cross_edges(units, assign) if len(partitions) > 1 else 0,
    )
    _metrics.add("wpa.partitions", plan.n_partitions)
    _metrics.gauge("wpa.partition_skew", plan.skew)
    return plan
