"""R10000-like 4-issue out-of-order timing model.

Models the features the paper invokes to explain why the R10000 rewards
HLI-guided scheduling more than the R4600 (Section 4.3):

* 4-wide in-order *fetch* into a reorder window (so the compile-time
  instruction order still matters: it decides when an instruction enters
  the window);
* out-of-order issue within the window once operands are ready;
* a load/store queue in which **a load is not issued to memory until all
  preceding stores in the queue have resolved addresses**, and a load
  that hits a preceding store to the same address waits for (and
  forwards from) that store's data;
* in-order retirement bounded by the window size.

The model times a dynamic trace with actual memory addresses (from the
functional executor), so store-to-load conflicts are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..backend.rtl import Insn, Opcode
from ..obs import metrics, trace
from .executor import Run, RunTrace, TraceEvent
from .latencies import r10000_latency
from .pipeline import TimingResult, run_records

_BRANCHES = {Opcode.J, Opcode.BEQZ, Opcode.BNEZ}

#: Instruction kinds the timing loop treats differently.
_OTHER, _LOAD, _STORE, _CALL = range(4)


@dataclass
class R10000Config:
    width: int = 4
    window: int = 32
    branch_penalty: int = 2
    store_queue: bool = True


class R10000Model:
    """Windowed out-of-order timing over a dynamic trace."""

    name = "R10000"

    def __init__(self, config: R10000Config | None = None, cache=None) -> None:
        self.config = config or R10000Config()
        #: optional MemoryHierarchy adding cache-miss penalties
        self.cache = cache

    def time(self, events: RunTrace | list[TraceEvent]) -> TimingResult:
        with trace.span("machine.time", machine=self.name):
            result = self._time(RunTrace.of(events))
        if metrics.is_enabled():
            metrics.add("machine.cycles.r10000", result.cycles)
            metrics.add("machine.insns.r10000", result.instructions)
        return result

    def _time(self, trace: RunTrace) -> TimingResult:
        cfg = self.config
        width = cfg.width
        window_size = cfg.window
        store_queue = cfg.store_queue
        cache = self.cache
        if cache is not None:
            cache.reset()
        #: ready cycle per register, by the register's index in ``slots``
        ready: list[int] = []
        slots: dict[int, int] = {}
        #: completion cycles of the last ``window_size`` instructions, as a
        #: ring whose next slot holds the oldest (0 before it fills, which
        #: never stalls fetch)
        window = [0] * window_size
        oldest_at = 0
        #: pending stores in the window: (addr, addr_ready, data_ready)
        stores: list[tuple[int, int, int]] = []
        fetch_cycle = 0
        fetched_this_cycle = 0
        clock_last_retire = 0
        count = 0
        addrs = trace.addrs
        taken = 0  # addresses read so far
        #: run -> its instructions' records (see _record), labels left out
        records: dict[Run, tuple] = {}
        for run in trace.runs:
            recs = records.get(run)
            if recs is None:
                recs = records[run] = run_records(run, self._record, slots, ready)
            count += len(recs)
            for srcs, dst, lat, kind in recs:
                # ---- fetch: 4-wide, in-order, window-limited ---------------
                if fetched_this_cycle >= width:
                    fetch_cycle += 1
                    fetched_this_cycle = 0
                # stall fetch until the oldest instruction retires
                oldest = window[oldest_at]
                if oldest > fetch_cycle:
                    fetch_cycle = oldest
                    fetched_this_cycle = 0
                fetched_this_cycle += 1

                # ---- issue --------------------------------------------------
                issue = fetch_cycle + 1
                for r in srcs:
                    t = ready[r]
                    if t > issue:
                        issue = t
                if kind is _OTHER:
                    complete = issue + lat
                elif kind is _LOAD:
                    addr = addrs[taken]
                    taken += 1
                    if cache is not None and addr is not None:
                        lat += cache.penalty(addr)
                    if store_queue:
                        # The load waits until all preceding stores have
                        # resolved addresses; a same-address store
                        # additionally forwards data.
                        for s_addr, s_aready, s_dready in stores:
                            if s_aready > issue:
                                issue = s_aready
                            if s_addr == addr and s_dready > issue:
                                issue = s_dready
                    complete = issue + lat
                elif kind is _STORE:
                    addr = addrs[taken]
                    taken += 1
                    if cache is not None and addr is not None:
                        lat += cache.penalty(addr)
                    complete = issue + lat
                    # address ready at issue, data one cycle later
                    stores.append((addr if addr is not None else -1, issue, issue + 1))
                    if len(stores) > window_size:
                        stores.pop(0)
                else:  # _CALL
                    # Serialize at call boundaries (the real machine drains
                    # the store queue and mispredicts returns often enough).
                    stores.clear()
                    if clock_last_retire > issue:
                        issue = clock_last_retire
                    complete = issue + lat

                if dst is not None:
                    ready[dst] = complete
                # retire tracking: in-order retirement means completion
                # order can't regress below the previous retire cycle.
                if complete < clock_last_retire:
                    complete = clock_last_retire
                clock_last_retire = complete
                window[oldest_at] = complete
                oldest_at += 1
                if oldest_at == window_size:
                    oldest_at = 0
                # age out stores whose data is long done
                if stores and stores[0][2] <= fetch_cycle - window_size:
                    stores.pop(0)
        return TimingResult(cycles=clock_last_retire, instructions=count)

    def _record(self, insn: Insn, reg) -> tuple:
        """The timing facts of one static instruction: source and
        destination register indices, latency and kind.  A branch
        completes ``branch_penalty`` cycles after issue, so that is its
        latency."""
        op = insn.op
        lat = r10000_latency(insn)
        kind = _OTHER
        if op is Opcode.LOAD:
            kind = _LOAD
        elif op is Opcode.STORE:
            kind = _STORE
        elif op is Opcode.CALL:
            kind = _CALL
        elif op in _BRANCHES:
            lat = self.config.branch_penalty
        return (
            tuple(reg(r) for r in insn.src_regs()),
            reg(insn.dst) if insn.dst is not None else None,
            lat,
            kind,
        )
