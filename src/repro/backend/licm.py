"""Loop-invariant code motion with HLI-aided load hoisting.

The paper's motivating example (Section 3.2.2): "in loop invariant code
removal, a memory reference can be moved out of a loop only when there
remains no other memory reference in the loop that can possibly alias
the memory reference."  Without HLI the back-end can prove that for
almost nothing; with HLI the ``get_equiv_acc``/``get_call_acc`` queries
answer it per pair.

The pass handles innermost loops only (no inner loop labels inside the
span) and hoists:

* ``LI``/``LA`` and pure ALU instructions whose operands are invariant
  and whose destination is defined exactly once in the loop;
* ``LOAD`` instructions with invariant addresses when no store or call
  in the loop may touch the loaded location (mode-dependent test).

Hoisted loads are re-homed in the HLI via
:func:`repro.hli.maintenance.move_item_to_parent`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hli.maintenance import MaintenanceError, move_item_to_parent
from ..hli.query import CallAcc, EquivAcc, HLIQuery
from ..hli.tables import HLIEntry
from ..obs import metrics, trace
from .cse import _PURE_OPS
from .deps import may_conflict
from .rtl import Insn, Opcode, RTLFunction


@dataclass
class LICMStats:
    alu_hoisted: int = 0
    loads_hoisted: int = 0
    loops_processed: int = 0

    def merge(self, other: "LICMStats") -> None:
        self.alu_hoisted += other.alu_hoisted
        self.loads_hoisted += other.loads_hoisted
        self.loops_processed += other.loops_processed


def _loop_span(fn: RTLFunction, top: str) -> tuple[int, int] | None:
    """(index of LABEL top, index of the J top closing the loop)."""
    start = None
    for idx, insn in enumerate(fn.insns):
        if insn.op is Opcode.LABEL and insn.label == top:
            start = idx
        elif insn.op is Opcode.J and insn.label == top and start is not None:
            return start, idx
    return None


def run_licm(
    fn: RTLFunction,
    use_hli: bool = False,
    query: HLIQuery | None = None,
    entry: HLIEntry | None = None,
) -> LICMStats:
    """Hoist invariants out of every innermost loop of ``fn`` (mutates it)."""
    stats = LICMStats()
    with trace.span("backend.licm", fn=fn.name, hli=use_hli):
        _run_licm(fn, use_hli, query, entry, stats)
    if metrics.is_enabled():
        metrics.add("licm.alu_hoisted", stats.alu_hoisted)
        metrics.add("licm.loads_hoisted", stats.loads_hoisted)
        metrics.add("licm.loops_processed", stats.loops_processed)
    return stats


def _run_licm(
    fn: RTLFunction,
    use_hli: bool,
    query: HLIQuery | None,
    entry: HLIEntry | None,
    stats: LICMStats,
) -> None:
    for top, _cont, _exit in list(fn.loops):
        span = _loop_span(fn, top)
        if span is None:
            continue
        start, end = span
        body = fn.insns[start + 1 : end]
        # innermost only: no other loop top inside
        inner_tops = {t for t, _, _ in fn.loops if t != top}
        if any(i.op is Opcode.LABEL and i.label in inner_tops for i in body):
            continue
        stats.loops_processed += 1
        hoisted = _hoist_from_body(body, use_hli, query, entry, stats)
        if hoisted:
            remaining = [i for i in body if i not in hoisted]
            fn.insns[start + 1 : end] = remaining
            # insert before the loop header label
            for h in reversed(hoisted):
                fn.insns.insert(start, h)


def _hoist_from_body(
    body: list[Insn],
    use_hli: bool,
    query: HLIQuery | None,
    entry: HLIEntry | None,
    stats: LICMStats,
) -> list[Insn]:
    def_counts: dict[int, int] = {}
    for insn in body:
        if insn.dst is not None:
            def_counts[insn.dst.rid] = def_counts.get(insn.dst.rid, 0) + 1

    stores = [i for i in body if i.op is Opcode.STORE]
    calls = [i for i in body if i.op is Opcode.CALL]
    has_branch_inside = any(
        i.op in (Opcode.BEQZ, Opcode.BNEZ, Opcode.LABEL) for i in body[:-1]
    )

    invariant_regs: set[int] = set()
    hoisted: list[Insn] = []
    changed = True
    hoisted_set: set[int] = set()

    def srcs_invariant(insn: Insn) -> bool:
        for s in insn.src_regs():
            if def_counts.get(s.rid, 0) == 0:
                continue  # defined outside the loop
            if s.rid not in invariant_regs:
                return False
        return True

    while changed:
        changed = False
        for insn in body:
            if insn.uid in hoisted_set or insn.dst is None:
                continue
            if def_counts.get(insn.dst.rid, 0) != 1:
                continue
            if insn.op in _PURE_OPS and srcs_invariant(insn):
                # Conditional execution makes hoisting pure ops safe only
                # because our ALU cannot fault on speculation... except
                # integer division, which can.
                if has_branch_inside and insn.op in (Opcode.DIV, Opcode.MOD):
                    continue
                hoisted.append(insn)
                hoisted_set.add(insn.uid)
                invariant_regs.add(insn.dst.rid)
                stats.alu_hoisted += 1
                changed = True
            elif insn.op is Opcode.LOAD and srcs_invariant(insn):
                # Loads cannot fault on this machine model, so speculative
                # hoisting past the loop guard / inner branches is safe as
                # long as no aliasing store or call intervenes.
                if _load_hoistable(insn, stores, calls, use_hli, query):
                    hoisted.append(insn)
                    hoisted_set.add(insn.uid)
                    invariant_regs.add(insn.dst.rid)
                    stats.loads_hoisted += 1
                    if entry is not None and insn.hli_item is not None:
                        try:
                            move_item_to_parent(entry, insn.hli_item)
                        except MaintenanceError:
                            pass
                        if query is not None:
                            query.refresh()
                    changed = True
    return hoisted


def _load_hoistable(
    load: Insn,
    stores: list[Insn],
    calls: list[Insn],
    use_hli: bool,
    query: HLIQuery | None,
) -> bool:
    assert load.mem is not None
    for store in stores:
        assert store.mem is not None
        if use_hli and query is not None and load.hli_item and store.hli_item:
            if query.get_equiv_acc(load.hli_item, store.hli_item) is not EquivAcc.NONE:
                return False
        elif may_conflict(load.mem, store.mem):
            return False
    for call in calls:
        if use_hli and query is not None and load.hli_item and call.hli_item:
            acc = query.get_call_acc(load.hli_item, call.hli_item)
            if acc in (CallAcc.MOD, CallAcc.REFMOD, CallAcc.UNKNOWN):
                return False
        else:
            return False  # a call may write anything
    return True
