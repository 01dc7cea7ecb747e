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

On flat memory a trace is walked through a :class:`TransitionTable`
(see ``R4600Model._walk``); with a cache hierarchy every instruction
goes through the rules in ``R4600Model._issue``, which also time each
run the table has not seen yet.
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


def pending(ready: list[int], regs: tuple, recs: tuple, clock: int) -> tuple:
    """The registers of a state's ``regs`` and the destinations of
    ``recs`` (each record's second field) that become ready two or more
    cycles after ``clock``, as sorted ``(index, ready - clock)`` pairs.
    Every one of those registers is set back to cycle 0 in ``ready``."""
    touched = {r for r, _ in regs}
    touched.update(rec[1] for rec in recs if rec[1] is not None)
    out = []
    for r in sorted(touched):
        rel = ready[r] - clock
        if rel >= 2:
            out.append((r, rel))
        ready[r] = 0
    return tuple(out)


class State(dict):
    """A model's state between two runs, taken relative to its clock and
    interned by a :class:`TransitionTable`.  ``facts`` is the tuple that
    identifies it; the dict maps each run seen from this state to the
    transition it takes, ``(next state, cycle delta, instructions, ...)``."""

    __slots__ = ("facts",)

    def __init__(self, facts: tuple) -> None:
        super().__init__()
        self.facts = facts


class TransitionTable:
    """The interned states of one ``time()`` call, and the number of runs
    the model's rules had to time because no transition was known."""

    def __init__(self) -> None:
        self.states: dict[tuple, State] = {}
        self.misses = 0

    def state(self, facts: tuple) -> State:
        state = self.states.get(facts)
        if state is None:
            state = self.states[facts] = State(facts)
        return state

    def report(self, machine: str) -> None:
        if metrics.is_enabled():
            metrics.add(f"machine.table.states.{machine}", len(self.states))
            metrics.add(f"machine.table.misses.{machine}", self.misses)


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
        #: run -> its instructions' records (see _record), labels left out
        records: dict[Run, tuple] = {}
        cache = self.cache
        if cache is None:
            return self._walk(trace, records, slots, ready)
        cache.reset()
        clock = count = taken = 0
        addrs = trace.addrs
        for run in trace.runs:
            recs = records.get(run)
            if recs is None:
                recs = records[run] = run_records(run, self._record, slots, ready)
            count += len(recs)
            clock, taken = self._issue(recs, ready, clock, addrs, taken)
        return TimingResult(cycles=clock, instructions=count)

    def _walk(self, trace: RunTrace, records: dict, slots: dict, ready: list) -> TimingResult:
        """Time ``trace`` on flat memory through a transition table.

        A state holds, sorted by register index, each register whose
        ready cycle is at least two cycles past the clock, as ``(index,
        ready - clock)``.  Nothing else can change a cycle count: every
        instruction issues at ``clock + 1`` or later and the clock only
        grows, so a register ready by then never stalls one again until
        it is written.  ``ready`` stays all zeros between misses.
        """
        table = TransitionTable()
        state = table.state(())
        clock = count = 0
        for run in trace.runs:
            t = state.get(run)
            if t is None:
                t = state[run] = self._transition(table, state, run, records, slots, ready)
            state, delta, n = t
            clock += delta
            count += n
        table.report("r4600")
        return TimingResult(cycles=clock, instructions=count)

    def _transition(self, table, state, run, records, slots, ready) -> tuple:
        """Time ``run`` from ``state`` by the rules: ``(next state, cycle
        delta, instructions)``."""
        table.misses += 1
        recs = records.get(run)
        if recs is None:
            recs = records[run] = run_records(run, self._record, slots, ready)
        for r, rel in state.facts:
            ready[r] = rel
        clock, _ = self._issue(recs, ready, 0, None, 0)
        return table.state(pending(ready, state.facts, recs, clock)), clock, len(recs)

    def _issue(self, recs: tuple, ready: list, clock: int, addrs, taken: int) -> tuple[int, int]:
        """The per-instruction rules: issue ``recs`` after cycle
        ``clock``, reading memory addresses from ``addrs`` at ``taken``
        on, and return the clock and the index of the next address."""
        cache = self.cache
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
        return clock, taken

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
