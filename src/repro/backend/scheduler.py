"""Basic-block list scheduler (GCC's first instruction scheduling pass).

The scheduler reorders each basic block's instructions subject to the
data dependence graph built by :mod:`repro.backend.ddg`, using classic
critical-path list scheduling.  Like GCC 2.7 (and as the paper notes in
Section 4.3), scheduling never crosses basic-block boundaries — which is
why large dependence-edge reductions do not always turn into large
speedups.

The DDG mode decides the scheduler's memory disambiguation precision:
``gcc`` = back-end only, ``hli`` = HLI only, ``combined`` = Figure 5's
AND combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..hli.query import HLIQuery
from ..machine.latencies import r4600_latency
from ..obs import metrics, trace
from .cfg import build_cfg
from .ddg import DDG, DDGBuilder, DDGMode, DepStats
from .rtl import BRANCH_OPS, Insn, Opcode, RTLFunction


@dataclass
class ScheduleResult:
    """Per-function scheduling outcome."""

    fn: RTLFunction
    stats: DepStats = field(default_factory=DepStats)
    blocks_scheduled: int = 0
    moved_insns: int = 0


def _critical_heights(ddg: DDG, latency: Callable[[Insn], int]) -> list[int]:
    """Longest-latency path from each node to the DDG's sinks."""
    n = len(ddg.insns)
    heights = [0] * n
    for i in range(n - 1, -1, -1):
        lat = latency(ddg.insns[i])
        best = 0
        for j in ddg.succs[i]:
            if heights[j] > best:
                best = heights[j]
        heights[i] = lat + best
    return heights


def schedule_block(
    insns: list[Insn],
    builder: DDGBuilder,
    latency: Callable[[Insn], int],
) -> list[Insn]:
    """Cycle-driven list scheduling of one block body.

    Models a single-issue machine while choosing the order: each node's
    earliest start is constrained by its predecessors' completion, and at
    every issue slot the scheduler picks, among *started-able* ready
    nodes, the one with the greatest critical-path height.  This is what
    lets accurate dependence information pay off — an independent load
    can slide into a stall slot that a conservative DDG would keep it out
    of (exactly GCC's haifa-style block scheduling behaviour).
    """
    if len(insns) <= 1:
        return list(insns)
    ddg = builder.build(insns)
    heights = _critical_heights(ddg, latency)
    n = len(insns)
    remaining_preds = [len(ddg.preds[i]) for i in range(n)]
    earliest = [0] * n
    ready: list[int] = [i for i in range(n) if remaining_preds[i] == 0]
    order: list[Insn] = []
    cycle = 0
    record = metrics.is_enabled()
    while ready:
        if record:
            metrics.observe("sched.ready_list_len", len(ready))
        startable = [i for i in ready if earliest[i] <= cycle]
        if not startable:
            cycle = min(earliest[i] for i in ready)
            startable = [i for i in ready if earliest[i] <= cycle]
        # highest critical path first; original position breaks ties
        best = max(startable, key=lambda i: (heights[i], -i))
        ready.remove(best)
        order.append(ddg.insns[best])
        finish = cycle + latency(ddg.insns[best])
        for j in ddg.succs[best]:
            if finish > earliest[j]:
                earliest[j] = finish
            remaining_preds[j] -= 1
            if remaining_preds[j] == 0:
                ready.append(j)
        cycle += 1
    assert len(order) == n, "DDG contains a cycle"
    return order


def schedule_function(
    fn: RTLFunction,
    mode: DDGMode,
    query: Optional[HLIQuery] = None,
    latency: Callable[[Insn], int] = r4600_latency,
) -> ScheduleResult:
    """Schedule every basic block of ``fn``; returns a new instruction
    order in ``result.fn`` (the function object is mutated in place)."""
    result = ScheduleResult(fn=fn)
    builder = DDGBuilder(mode=mode, query=query, stats=result.stats)
    with trace.span("backend.schedule", fn=fn.name, mode=mode.value):
        cfg = build_cfg(fn)
        new_chain: list[Insn] = []
        for block in cfg.blocks:
            head: list[Insn] = []
            tail: list[Insn] = []
            body = list(block.insns)
            if body and body[0].op is Opcode.LABEL:
                head = [body[0]]
                body = body[1:]
            if body and body[-1].op in BRANCH_OPS:
                tail = [body[-1]]
                body = body[:-1]
            scheduled = schedule_block(body, builder, latency)
            if scheduled != body:
                result.moved_insns += sum(
                    1 for a, b in zip(scheduled, body) if a is not b
                )
            result.blocks_scheduled += 1
            new_chain.extend(head)
            new_chain.extend(scheduled)
            new_chain.extend(tail)
        fn.insns = new_chain
    if metrics.is_enabled():
        _record_schedule_metrics(result, mode)
    return result


def _record_schedule_metrics(result: ScheduleResult, mode: DDGMode) -> None:
    """Emit the Table 2 dependence counters into the metrics registry.

    ``ddg.edges.deleted.<mode>`` is how many memory-dependence edges the
    active mode removed relative to GCC's local-only answer — the
    quantity the paper's Table 2 reports as the edge reduction.
    """
    s = result.stats
    metrics.add("ddg.tests", s.total_tests)
    metrics.add("ddg.yes.gcc", s.gcc_yes)
    metrics.add("ddg.yes.hli", s.hli_yes)
    metrics.add("ddg.yes.combined", s.combined_yes)
    kept = {
        DDGMode.GCC: s.gcc_yes,
        DDGMode.HLI: s.hli_yes,
        DDGMode.COMBINED: s.combined_yes,
    }[mode]
    metrics.add(f"ddg.edges.kept.{mode.value}", kept)
    metrics.add(f"ddg.edges.deleted.{mode.value}", max(0, s.gcc_yes - kept))
    metrics.add("sched.blocks", result.blocks_scheduled)
    metrics.add("sched.moved_insns", result.moved_insns)
