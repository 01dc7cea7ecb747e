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
from .executor import TraceEvent
from .latencies import r10000_latency
from .pipeline import TimingResult

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

    def time(self, events: list[TraceEvent]) -> TimingResult:
        with trace.span("machine.time", machine=self.name):
            result = self._time(events)
        if metrics.is_enabled():
            metrics.add("machine.cycles.r10000", result.cycles)
            metrics.add("machine.insns.r10000", result.instructions)
        return result

    def _time(self, trace: list[TraceEvent]) -> TimingResult:
        cfg = self.config
        width = cfg.width
        window_size = cfg.window
        store_queue = cfg.store_queue
        cache = self.cache
        if cache is not None:
            cache.reset()
        ready: dict[int, int] = {}
        #: completion cycles of the instructions currently in the window
        window: list[int] = []
        #: pending stores in the window: (addr, addr_ready, data_ready)
        stores: list[tuple[int, int, int]] = []
        fetch_cycle = 0
        fetched_this_cycle = 0
        clock_last_retire = 0
        count = 0
        #: id(insn) -> (source rids, destination rid, latency, kind, probes
        #: the cache), or None for a label
        records: dict[int, tuple | None] = {}
        for ev in trace:
            insn = ev.insn
            try:
                rec = records[id(insn)]
            except KeyError:
                rec = records[id(insn)] = self._record(insn)
            if rec is None:
                continue
            srcs, dst, lat, kind, probe = rec
            count += 1
            # ---- fetch: 4-wide, in-order, window-limited -------------------
            if fetched_this_cycle >= width:
                fetch_cycle += 1
                fetched_this_cycle = 0
            if len(window) >= window_size:
                # stall fetch until the oldest instruction retires
                oldest = window.pop(0)
                if oldest > fetch_cycle:
                    fetch_cycle = oldest
                    fetched_this_cycle = 0
            fetched_this_cycle += 1

            # ---- issue ------------------------------------------------------
            issue = fetch_cycle + 1
            for rid in srcs:
                t = ready.get(rid, 0)
                if t > issue:
                    issue = t
            if probe and ev.addr is not None:
                lat += cache.penalty(ev.addr)

            if kind is _LOAD and store_queue:
                # The load waits until all preceding stores have resolved
                # addresses; a same-address store additionally forwards data.
                for s_addr, s_aready, s_dready in stores:
                    if s_aready > issue:
                        issue = s_aready
                    if ev.addr is not None and s_addr == ev.addr and s_dready > issue:
                        issue = s_dready
            complete = issue + lat
            if kind is _STORE:
                addr_ready = issue
                data_ready = issue + 1
                stores.append((ev.addr if ev.addr is not None else -1, addr_ready, data_ready))
                if len(stores) > window_size:
                    stores.pop(0)
            elif kind is _CALL:
                # Serialize at call boundaries (the real machine drains the
                # store queue and mispredicts returns often enough).
                stores.clear()
                if clock_last_retire > issue:
                    issue = clock_last_retire
                complete = issue + lat

            if dst is not None:
                ready[dst] = complete
            # retire tracking: in-order retirement means completion order
            # can't regress below the previous retire cycle.
            if complete < clock_last_retire:
                complete = clock_last_retire
            clock_last_retire = complete
            window.append(complete)
            # age out stores whose data is long done
            if stores and stores[0][2] <= fetch_cycle - window_size:
                stores.pop(0)
        return TimingResult(cycles=clock_last_retire, instructions=count)

    def _record(self, insn: Insn) -> tuple | None:
        """The timing facts of one static instruction.  A branch completes
        ``branch_penalty`` cycles after issue, so that is its latency."""
        op = insn.op
        if op is Opcode.LABEL:
            return None
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
            tuple(r.rid for r in insn.src_regs()),
            insn.dst.rid if insn.dst is not None else None,
            lat,
            kind,
            self.cache is not None and insn.mem is not None,
        )
