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
from .executor import Run, RunTrace, TraceEvent
from .latencies import r4600_latency

_BRANCHES = {Opcode.J, Opcode.BEQZ, Opcode.BNEZ}


def run_records(run: Run, record, slots: dict[int, int], ready: list[int]) -> tuple:
    """``record(insn, reg)`` for each instruction of ``run``, labels left
    out.  ``reg`` gives a register its index into ``ready``, numbering
    registers in ``slots`` as they are first seen and growing ``ready``
    by a cycle-0 entry for each."""

    def reg(r) -> int:
        index = slots.get(r.rid)
        if index is None:
            index = slots[r.rid] = len(ready)
            ready.append(0)
        return index

    return tuple(record(insn, reg) for insn in run.insns if insn.op is not Opcode.LABEL)


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

    def time(self, events: RunTrace | list[TraceEvent]) -> TimingResult:
        with trace.span("machine.time", machine=self.name):
            result = self._time(RunTrace.of(events))
        if metrics.is_enabled():
            metrics.add("machine.cycles.r4600", result.cycles)
            metrics.add("machine.insns.r4600", result.instructions)
        return result

    def _time(self, trace: RunTrace) -> TimingResult:
        #: ready cycle per register, by the register's index in ``slots``
        ready: list[int] = []
        slots: dict[int, int] = {}
        clock = 0
        count = 0
        cache = self.cache
        if cache is not None:
            cache.reset()
        addrs = trace.addrs
        taken = 0  # addresses read so far
        #: run -> its instructions' records (see _record), labels left out
        records: dict[Run, tuple] = {}
        for run in trace.runs:
            recs = records.get(run)
            if recs is None:
                recs = records[run] = run_records(run, self._record, slots, ready)
            count += len(recs)
            for srcs, dst, lat, after, probe in recs:
                issue = clock + 1
                for r in srcs:
                    t = ready[r]
                    if t > issue:
                        issue = t
                if probe:
                    addr = addrs[taken]
                    taken += 1
                    extra = cache.penalty(addr) if addr is not None else 0
                    if dst is not None:
                        ready[dst] = issue + lat + extra
                    else:
                        issue += extra  # a missing store occupies the bus
                elif dst is not None:
                    ready[dst] = issue + lat
                clock = issue + after
        return TimingResult(cycles=clock, instructions=count)

    def _record(self, insn: Insn, reg) -> tuple:
        """The timing facts of one static instruction: source and
        destination register indices, latency, stall after issue, and
        whether it probes the cache (loads and stores, when there is
        one)."""
        op = insn.op
        if op in _BRANCHES:
            after = self.branch_penalty
        elif op is Opcode.CALL:
            after = 1  # pipeline drain on call boundaries
        else:
            after = 0
        return (
            tuple(reg(r) for r in insn.src_regs()),
            reg(insn.dst) if insn.dst is not None else None,
            r4600_latency(insn),
            after,
            self.cache is not None and (op is Opcode.LOAD or op is Opcode.STORE),
        )
