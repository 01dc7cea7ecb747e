"""R4600-like in-order pipeline timing model.

The MIPS R4600 is a single-issue, five-stage, in-order pipeline with
interlocked load-use delays.  The model charges:

* one issue slot per instruction (IPC <= 1);
* operand interlocks: an instruction stalls until every source register
  is ready (register results become ready ``latency`` cycles after
  issue);
* a one-cycle taken-branch bubble.

This is exactly the machine behaviour that makes *basic-block
scheduling* profitable: hoisting a load away from its use hides the
load-use slot, which is where the paper's R4600 speedups come from.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..backend.rtl import Insn, Opcode
from ..obs import metrics, trace
from .executor import TraceEvent
from .latencies import r4600_latency

_BRANCHES = {Opcode.J, Opcode.BEQZ, Opcode.BNEZ}


@dataclass
class TimingResult:
    """Outcome of timing one dynamic trace."""

    cycles: int
    instructions: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class R4600Model:
    """Single-issue in-order timing over a dynamic trace.

    Pass a :class:`~repro.machine.memory.MemoryHierarchy` to add
    cache-miss stalls; the default flat memory isolates the scheduling
    effect the paper measures.
    """

    name = "R4600"

    def __init__(self, branch_penalty: int = 1, cache=None) -> None:
        self.branch_penalty = branch_penalty
        self.cache = cache

    def time(self, events: list[TraceEvent]) -> TimingResult:
        with trace.span("machine.time", machine=self.name):
            result = self._time(events)
        if metrics.is_enabled():
            metrics.add("machine.cycles.r4600", result.cycles)
            metrics.add("machine.insns.r4600", result.instructions)
        return result

    def _time(self, trace: list[TraceEvent]) -> TimingResult:
        ready: dict[int, int] = {}
        clock = 0
        count = 0
        cache = self.cache
        if cache is not None:
            cache.reset()
        #: id(insn) -> (source rids, destination rid, latency, stall after
        #: issue, probes the cache), or None for a label
        records: dict[int, tuple | None] = {}
        for ev in trace:
            insn = ev.insn
            try:
                rec = records[id(insn)]
            except KeyError:
                rec = records[id(insn)] = self._record(insn)
            if rec is None:
                continue
            srcs, dst, lat, after, probe = rec
            count += 1
            issue = clock + 1
            for rid in srcs:
                t = ready.get(rid, 0)
                if t > issue:
                    issue = t
            extra = 0
            if probe and ev.addr is not None:
                extra = cache.penalty(ev.addr)
            if dst is not None:
                ready[dst] = issue + lat + extra
            elif extra:
                issue += extra  # a missing store occupies the bus
            clock = issue + after
        return TimingResult(cycles=clock, instructions=count)

    def _record(self, insn: Insn) -> tuple | None:
        """The timing facts of one static instruction."""
        op = insn.op
        if op is Opcode.LABEL:
            return None
        if op in _BRANCHES:
            after = self.branch_penalty
        elif op is Opcode.CALL:
            after = 1  # pipeline drain on call boundaries
        else:
            after = 0
        return (
            tuple(r.rid for r in insn.src_regs()),
            insn.dst.rid if insn.dst is not None else None,
            r4600_latency(insn),
            after,
            self.cache is not None and insn.mem is not None,
        )
