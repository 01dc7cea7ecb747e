"""Local common-subexpression elimination with HLI-aided invalidation.

Implements the paper's Figure 4 scenario: GCC's CSE keeps a table of
available expressions; without interprocedural information every
expression containing a memory reference must be purged at each call
site.  With HLI, ``get_call_acc`` selectively purges only expressions
whose memory location the callee may modify.

The pass is per-basic-block value numbering:

* pure ALU results are reused when the same (op, operands) recurs;
* a LOAD is reused from an earlier LOAD of the same address value, or
  forwarded from an earlier STORE through it;
* STOREs invalidate loads that may alias (local test, or HLI
  ``get_equiv_acc`` when enabled);
* CALLs invalidate memory-derived entries — all of them without HLI,
  only the MOD-set with HLI.

Eliminated loads have their HLI items deleted via the maintenance API,
keeping the line-table mapping consistent for later passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..hli.maintenance import delete_item
from ..hli.query import CallAcc, EquivAcc, HLIQuery
from ..hli.tables import HLIEntry
from ..obs import metrics, trace
from .cfg import build_cfg
from .deps import may_conflict
from .rtl import Insn, Opcode, Reg, RTLFunction

#: Opcodes whose results are pure functions of their operands.
_PURE_OPS = {
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.DIV,
    Opcode.MOD,
    Opcode.NEG,
    Opcode.NOT,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.SHL,
    Opcode.SHR,
    Opcode.SLT,
    Opcode.SLE,
    Opcode.SEQ,
    Opcode.SNE,
    Opcode.CVT_IF,
    Opcode.CVT_FI,
    Opcode.LA,
    Opcode.LI,
}


@dataclass
class CSEStats:
    """What the pass eliminated (for the Figure 4 ablation benchmark)."""

    alu_eliminated: int = 0
    loads_eliminated: int = 0
    call_invalidation_events: int = 0
    entries_kept_across_calls: int = 0
    entries_purged_at_calls: int = 0

    def merge(self, other: "CSEStats") -> None:
        self.alu_eliminated += other.alu_eliminated
        self.loads_eliminated += other.loads_eliminated
        self.call_invalidation_events += other.call_invalidation_events
        self.entries_kept_across_calls += other.entries_kept_across_calls
        self.entries_purged_at_calls += other.entries_purged_at_calls


@dataclass
class _MemEntry:
    """One available memory value: the register that holds *(addr)."""

    insn: Insn  # the LOAD/STORE that produced the value
    value_reg: Reg
    value_vn: int
    addr_vn: int


class _BlockCSE:
    def __init__(
        self,
        use_hli: bool,
        query: Optional[HLIQuery],
        entry: Optional[HLIEntry],
        stats: CSEStats,
    ) -> None:
        self.use_hli = use_hli
        self.query = query
        self.entry = entry
        self.stats = stats
        self._vn = 0
        self.reg_vn: dict[int, int] = {}
        self.expr_table: dict[tuple, tuple[Reg, int]] = {}
        self.mem_table: list[_MemEntry] = []

    def fresh_vn(self) -> int:
        self._vn += 1
        return self._vn

    def vn_of(self, src) -> object:
        if isinstance(src, Reg):
            vn = self.reg_vn.get(src.rid)
            if vn is None:
                vn = self.fresh_vn()
                self.reg_vn[src.rid] = vn
            return ("r", vn)
        return ("imm", src)

    def define(self, reg: Reg) -> int:
        vn = self.fresh_vn()
        self.reg_vn[reg.rid] = vn
        return vn

    # -- main walk ---------------------------------------------------------

    def run(self, insns: list[Insn]) -> list[Insn]:
        out: list[Insn] = []
        for insn in insns:
            replacement = self.visit(insn)
            if replacement is not None:
                out.append(replacement)
        return out

    def visit(self, insn: Insn) -> Optional[Insn]:
        op = insn.op
        if op in _PURE_OPS and insn.dst is not None:
            key = (
                op,
                insn.is_float,
                tuple(self.vn_of(s) for s in insn.srcs),
                insn.imm,
                insn.symbol,
            )
            hit = self.expr_table.get(key)
            if hit is not None:
                reg, vn = hit
                if self.reg_vn.get(reg.rid) == vn and reg.rid != insn.dst.rid:
                    self.stats.alu_eliminated += 1
                    move = Insn(
                        Opcode.MOVE,
                        dst=insn.dst,
                        srcs=(reg,),
                        line=insn.line,
                        is_float=insn.is_float,
                    )
                    self.define(insn.dst)
                    # dst now holds the same value as reg
                    self.reg_vn[insn.dst.rid] = vn
                    return move
            vn = self.define(insn.dst)
            self.expr_table[key] = (insn.dst, vn)
            return insn
        if op is Opcode.MOVE and insn.dst is not None:
            src = insn.srcs[0]
            if isinstance(src, Reg):
                vn = self.reg_vn.get(src.rid)
                if vn is None:
                    vn = self.fresh_vn()
                    self.reg_vn[src.rid] = vn
                self.reg_vn[insn.dst.rid] = vn
            else:
                self.define(insn.dst)
            return insn
        if op is Opcode.LOAD:
            return self.visit_load(insn)
        if op is Opcode.STORE:
            return self.visit_store(insn)
        if op is Opcode.CALL:
            self.visit_call(insn)
            if insn.dst is not None:
                self.define(insn.dst)
            return insn
        # branches, labels, ret: leave alone
        if insn.dst is not None:
            self.define(insn.dst)
        return insn

    def visit_load(self, insn: Insn) -> Optional[Insn]:
        assert insn.mem is not None
        addr_vn = self.vn_of(insn.mem.addr)
        for entry in self.mem_table:
            if entry.addr_vn == addr_vn and self.reg_vn.get(entry.value_reg.rid) == entry.value_vn:
                self.stats.loads_eliminated += 1
                if self.entry is not None and insn.hli_item is not None:
                    delete_item(self.entry, insn.hli_item)
                    if self.query is not None:
                        self.query.refresh()
                assert insn.dst is not None
                move = Insn(
                    Opcode.MOVE,
                    dst=insn.dst,
                    srcs=(entry.value_reg,),
                    line=insn.line,
                    is_float=insn.is_float,
                )
                self.reg_vn[insn.dst.rid] = entry.value_vn
                return move
        assert insn.dst is not None
        vn = self.define(insn.dst)
        self.mem_table.append(
            _MemEntry(insn=insn, value_reg=insn.dst, value_vn=vn, addr_vn=addr_vn)  # type: ignore[arg-type]
        )
        return insn

    def visit_store(self, insn: Insn) -> Insn:
        assert insn.mem is not None
        survivors: list[_MemEntry] = []
        for entry in self.mem_table:
            assert entry.insn.mem is not None
            if self._store_kills(insn, entry):
                continue
            survivors.append(entry)
        self.mem_table = survivors
        # the stored value is now available at this address
        src = insn.srcs[0]
        if isinstance(src, Reg):
            vn = self.reg_vn.get(src.rid)
            if vn is None:
                vn = self.define(src)
            self.mem_table.append(
                _MemEntry(
                    insn=insn,
                    value_reg=src,
                    value_vn=vn,
                    addr_vn=self.vn_of(insn.mem.addr),  # type: ignore[arg-type]
                )
            )
        return insn

    def _store_kills(self, store: Insn, entry: _MemEntry) -> bool:
        assert store.mem is not None and entry.insn.mem is not None
        if entry.addr_vn == self.vn_of(store.mem.addr):
            return True  # same address: superseded (new entry added after)
        if self.use_hli and self.query is not None:
            a, b = store.hli_item, entry.insn.hli_item
            if a is not None and b is not None:
                return self.query.get_equiv_acc(a, b) is not EquivAcc.NONE
        return may_conflict(store.mem, entry.insn.mem)

    def visit_call(self, insn: Insn) -> None:
        """Figure 4: purge memory entries the callee may modify."""
        self.stats.call_invalidation_events += 1
        survivors: list[_MemEntry] = []
        for entry in self.mem_table:
            purge = True
            if (
                self.use_hli
                and self.query is not None
                and insn.hli_item is not None
                and entry.insn.hli_item is not None
            ):
                acc = self.query.get_call_acc(entry.insn.hli_item, insn.hli_item)
                purge = acc in (CallAcc.MOD, CallAcc.REFMOD, CallAcc.UNKNOWN)
            if purge:
                self.stats.entries_purged_at_calls += 1
            else:
                self.stats.entries_kept_across_calls += 1
                survivors.append(entry)
        self.mem_table = survivors


def run_cse(
    fn: RTLFunction,
    use_hli: bool = False,
    query: Optional[HLIQuery] = None,
    entry: Optional[HLIEntry] = None,
) -> CSEStats:
    """Run local CSE over every basic block of ``fn`` (mutates it)."""
    stats = CSEStats()
    with trace.span("backend.cse", fn=fn.name, hli=use_hli):
        cfg = build_cfg(fn)
        new_chain: list[Insn] = []
        for block in cfg.blocks:
            cse = _BlockCSE(use_hli=use_hli, query=query, entry=entry, stats=stats)
            new_chain.extend(cse.run(block.insns))
        fn.insns = new_chain
    if metrics.is_enabled():
        metrics.add("cse.alu_eliminated", stats.alu_eliminated)
        metrics.add("cse.loads_eliminated", stats.loads_eliminated)
        metrics.add("cse.entries_kept_across_calls", stats.entries_kept_across_calls)
        metrics.add("cse.entries_purged_at_calls", stats.entries_purged_at_calls)
    return stats
