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
functional executor), so store-to-load conflicts are exact.  On flat
memory the trace is walked through a transition table (see
``R10000Model._walk``); with a cache hierarchy every instruction goes
through the rules in ``R10000Model._issue``, which also time each run
the table has not seen yet.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from ..backend.rtl import Insn, Opcode
from ..obs import metrics, trace
from .executor import Run, RunTrace, TraceEvent
from .latencies import r10000_latency
from .pipeline import State, TimingResult, TransitionTable, pending, run_records

_BRANCHES = {Opcode.J, Opcode.BEQZ, Opcode.BNEZ}

#: Instruction kinds the timing loop treats differently.
_OTHER, _LOAD, _STORE, _CALL = range(4)


@dataclass
class R10000Config:
    width: int = 4
    window: int = 32
    branch_penalty: int = 2
    store_queue: bool = True


class _ByPattern(dict):
    """The transitions of one (state, run) whose loads compare addresses
    with stores, keyed by :func:`_pattern`.  ``recs`` are the run's
    records, and ``kinds`` tells its loads and stores apart, in order
    (True for a store)."""

    __slots__ = ("recs", "kinds")

    def __init__(self, recs: tuple, kinds: tuple[bool, ...]) -> None:
        super().__init__()
        self.recs = recs
        self.kinds = kinds


def _compares(kinds: tuple[bool, ...], stored: bool) -> bool:
    """Whether a load among ``kinds`` (True for a store) follows a store,
    counting live stores in the queue before the run when ``stored``."""
    for is_store in kinds:
        if is_store:
            stored = True
        elif stored:
            return True
    return False


def _pattern(live: tuple, kinds: tuple[bool, ...], addrs: list, taken: int) -> tuple:
    """Which stores each load of a run can match: the live stores (each
    ``live`` entry's offset is how far back in ``addrs`` from ``taken``
    its address lies), then the run's own loads and stores, whose
    addresses start at ``taken``.  A store gets the position of the
    first store with its address, a load the position of the first
    earlier store it matches or -1.  A store's None address is -1, as
    the queue holds it, and a load's None matches nothing."""
    seen: dict = {}
    key = []
    for _, off in live:
        addr = addrs[taken - off]
        key.append(seen.setdefault(-1 if addr is None else addr, len(key)))
    for is_store in kinds:
        addr = addrs[taken]
        taken += 1
        if is_store:
            key.append(seen.setdefault(-1 if addr is None else addr, len(key)))
        else:
            key.append(seen.get(addr, -1))
    return tuple(key)


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
        #: ready cycle per register, by the register's index in ``slots``
        ready: list[int] = []
        slots: dict[int, int] = {}
        #: run -> its instructions' records (see _record), labels left out
        records: dict[Run, tuple] = {}
        cache = self.cache
        if cache is None:
            return self._walk(trace, records, slots, ready)
        cache.reset()
        #: completion cycles of the last ``window`` instructions, as a ring
        #: whose slot ``at`` holds the oldest (0 before it fills, which
        #: never stalls fetch)
        window = [0] * self.config.window
        #: pending stores in the window: (addr, addr_ready, data_ready,
        #: index of addr in trace.addrs)
        stores: list[tuple] = []
        fetch = fetched = at = count = taken = 0
        addrs = trace.addrs
        for run in trace.runs:
            recs = records.get(run)
            if recs is None:
                recs = records[run] = run_records(run, self._record, slots, ready)
            count += len(recs)
            fetch, fetched, at, taken = self._issue(
                recs, ready, window, stores, fetch, fetched, at, addrs, taken
            )
        return TimingResult(cycles=window[at - 1], instructions=count)

    def _walk(self, trace: RunTrace, records: dict, slots: dict, ready: list) -> TimingResult:
        """Time ``trace`` on flat memory through a transition table.

        A state is taken relative to the fetch cycle F and keeps only
        what can still change a cycle count, as ``(fetched, suffix,
        stores, regs)``:

        * ``fetched``: instructions fetched in cycle F;
        * ``suffix``: the window ring's completions after F, oldest
          first, as its newest entries.  Completions never decrease
          from oldest to newest (retirement clamps each one to the one
          before), and one at or before F never stalls fetch again;
        * ``stores``: the live stores in the queue, oldest first, as
          ``(data_ready - F, offset)``.  A store is live while its data
          is ready after F + 1; a dead one can never delay a load again,
          and neither overflow nor ageing ever removes a live one (a
          store reaches the head of a full queue only once ``window``
          later instructions were fetched, by when F has passed its
          completion), so dead stores are left out.  ``offset`` is how
          far back from the current run's first address the store's own
          address lies in ``trace.addrs``: addresses stay out of the
          state, and only a run whose loads can meet a store, live or
          earlier in the run, adds their :func:`_pattern` to its key;
        * ``regs``: each register whose ready cycle is at least F + 2,
          as ``(index, ready - F)``, since nothing issues before F + 1.

        Without a store queue a load never looks at stores, so
        ``stores`` stays empty.  The last completion is the newest
        suffix entry, which follows F by at least one cycle once an
        instruction has been fetched.  ``ready`` stays all zeros between
        misses.
        """
        table = TransitionTable()
        state = table.state((0, (), (), ()))
        fetch = count = taken = 0
        addrs = trace.addrs
        for run in trace.runs:
            t = state.get(run)
            if t.__class__ is not tuple:
                t = self._transition(table, state, run, t, records, slots, ready, addrs, taken)
            state, delta, n, m = t
            fetch += delta
            count += n
            taken += m
        table.report("r10000")
        suffix = state.facts[1]
        return TimingResult(cycles=fetch + suffix[-1] if suffix else fetch, instructions=count)

    def _transition(
        self, table, state: State, run: Run, entry, records, slots, ready, addrs, taken
    ) -> tuple:
        """The transition ``run`` takes from ``state`` (whose entry for
        ``run`` is ``entry``), timed by the rules if it is not known yet:
        ``(next state, fetch-cycle delta, instructions, addresses)``."""
        live = state.facts[2]
        if entry is None:
            recs = records.get(run)
            if recs is None:
                recs = records[run] = run_records(run, self._record, slots, ready)
            kinds = tuple(rec[3] is _STORE for rec in recs if rec[3] in (_LOAD, _STORE))
            if not (self.config.store_queue and _compares(kinds, bool(live))):
                t = state[run] = self._time_run(table, state, recs, kinds, ready, addrs, taken)
                return t
            entry = state[run] = _ByPattern(recs, kinds)
        key = _pattern(live, entry.kinds, addrs, taken)
        t = entry.get(key)
        if t is None:
            t = entry[key] = self._time_run(
                table, state, entry.recs, entry.kinds, ready, addrs, taken
            )
        return t

    def _time_run(
        self, table, state: State, recs: tuple, kinds: tuple, ready: list, addrs, taken: int
    ) -> tuple:
        """Time ``recs`` (whose loads and stores are ``kinds``) from
        ``state`` by the rules, with fetch cycle 0."""
        table.misses += 1
        size = self.config.window
        fetched, suffix, live, regs = state.facts
        window = [0] * (size - len(suffix)) + list(suffix)
        stores = []
        for data, off in live:
            addr = addrs[taken - off]
            stores.append((-1 if addr is None else addr, data - 1, data, taken - off))
        for r, rel in regs:
            ready[r] = rel
        fetch, fetched, at, end = self._issue(
            recs, ready, window, stores, 0, fetched, 0, addrs, taken
        )
        ring = window[at:] + window[:at]  # oldest first, never decreasing
        suffix = tuple([done - fetch for done in ring[bisect_right(ring, fetch):]])
        live = []
        if self.config.store_queue:
            for _, _, data, index in stores:
                if data - fetch > 1:
                    live.append((data - fetch, end - index))
        nxt = table.state((fetched, suffix, tuple(live), pending(ready, regs, recs, fetch)))
        return nxt, fetch, len(recs), len(kinds)

    def _issue(
        self, recs: tuple, ready: list, window: list, stores: list,
        fetch: int, fetched: int, at: int, addrs, taken: int,
    ) -> tuple[int, int, int, int]:
        """The per-instruction rules: fetch, issue and retire ``recs``
        into ``window`` (a ring whose slot ``at`` holds the oldest
        completion) and the store queue ``stores``, updating ``ready``,
        and reading memory addresses from ``addrs`` at ``taken`` on.
        Returns the fetch cycle, the instructions fetched in it, the
        ring's new ``at`` and the index of the next address."""
        cfg = self.config
        width = cfg.width
        size = cfg.window
        store_queue = cfg.store_queue
        cache = self.cache
        #: the last completion, which is the ring's newest entry
        last = window[at - 1]
        for srcs, dst, lat, kind in recs:
            # ---- fetch: 4-wide, in-order, window-limited ---------------
            if fetched >= width:
                fetch += 1
                fetched = 0
            # stall fetch until the oldest instruction retires
            oldest = window[at]
            if oldest > fetch:
                fetch = oldest
                fetched = 0
            fetched += 1

            # ---- issue --------------------------------------------------
            issue = fetch + 1
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
                    for s_addr, s_aready, s_dready, _ in stores:
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
                stores.append((addr if addr is not None else -1, issue, issue + 1, taken - 1))
                if len(stores) > size:
                    stores.pop(0)
            else:  # _CALL
                # Serialize at call boundaries (the real machine drains
                # the store queue and mispredicts returns often enough).
                stores.clear()
                if last > issue:
                    issue = last
                complete = issue + lat

            if dst is not None:
                ready[dst] = complete
            # retire tracking: in-order retirement means completion
            # order can't regress below the previous retire cycle.
            if complete < last:
                complete = last
            last = complete
            window[at] = complete
            at += 1
            if at == size:
                at = 0
            # age out stores whose data is long done
            if stores and stores[0][2] <= fetch - size:
                stores.pop(0)
        return fetch, fetched, at, taken

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
