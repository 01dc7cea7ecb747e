"""Loop unrolling with HLI maintenance (the paper's Figure 6).

Unrolls innermost, branch-free, counted loops whose constant trip count
is divisible by the factor (no preconditioning loop is generated —
non-divisible candidates are skipped).  The interesting part is the HLI
side: each cloned memory reference receives a cloned item via
:func:`repro.hli.maintenance.unroll_region`, definite loop-carried
dependences that now fall *within* one unrolled iteration become
alias/equivalence facts, and crossing dependences get rescaled
distances — exactly the update the paper sketches.

The loop's trip count and step come from the HLI region header
(``get_region_info``), demonstrating the paper's point that high-level
*structure* information can guide back-end transformations that the RTL
alone cannot justify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hli.maintenance import UnrollMaintenance, unroll_region
from ..hli.query import HLIQuery
from ..hli.tables import HLIEntry, RegionType
from ..obs import metrics, trace
from .licm import _loop_span
from .rtl import Insn, Opcode, Reg, RTLFunction, new_reg


@dataclass
class UnrollStats:
    loops_unrolled: int = 0
    copies_made: int = 0
    items_cloned: int = 0
    maintenance: list[UnrollMaintenance] = field(default_factory=list)

    def merge(self, other: "UnrollStats") -> None:
        self.loops_unrolled += other.loops_unrolled
        self.copies_made += other.copies_made
        self.items_cloned += other.items_cloned
        self.maintenance.extend(other.maintenance)


def _segment_is_unrollable(segment: list[Insn]) -> bool:
    """Branch-free except the single loop-exit BEQZ right after the header."""
    seen_guard = False
    for idx, insn in enumerate(segment):
        if insn.op in (Opcode.J, Opcode.RET):
            return False
        if insn.op in (Opcode.BEQZ, Opcode.BNEZ):
            if seen_guard:
                return False
            seen_guard = True
        if insn.op is Opcode.LABEL and not _is_cont_label(insn):
            return False
    return seen_guard


def _is_cont_label(insn: Insn) -> bool:
    return insn.label is not None and (".fcont" in insn.label or "cont" in insn.label)


def _loop_region_of(segment: list[Insn], query: HLIQuery) -> int | None:
    """The (innermost, LOOP) HLI region the segment's items live in."""
    for insn in segment:
        if insn.hli_item is None:
            continue
        info = query.get_region_info(insn.hli_item)
        if info is not None and info.region_type is RegionType.LOOP:
            return info.region_id
    return None


def _clone_segment(
    segment: list[Insn],
    copy_index: int,
    maint: UnrollMaintenance,
    pinned: frozenset[int] = frozenset(),
) -> list[Insn]:
    """Clone with per-copy renaming of pure temporaries.

    Registers read before being defined inside the segment are
    loop-carried (induction variables, accumulators) and keep their
    identity, as do ``pinned`` registers — those referenced anywhere
    outside the segment (live-out values such as a variable assigned in
    the loop and read after it must keep one home register across all
    copies).  Everything else gets a fresh register per copy.
    """
    defined: set[int] = set()
    live_in: set[int] = set()
    for insn in segment:
        for s in insn.src_regs():
            if s.rid not in defined:
                live_in.add(s.rid)
        if insn.dst is not None:
            defined.add(insn.dst.rid)
    live_in |= pinned
    rename: dict[int, Reg] = {}

    def map_reg(r: Reg) -> Reg:
        if r.rid in rename:
            return rename[r.rid]
        return r

    out: list[Insn] = []
    for insn in segment:
        new_srcs = tuple(map_reg(s) if isinstance(s, Reg) else s for s in insn.srcs)
        mem = None
        if insn.mem is not None:
            mem = type(insn.mem)(
                addr=map_reg(insn.mem.addr),
                width=insn.mem.width,
                is_store=insn.mem.is_store,
                known_symbol=insn.mem.known_symbol,
                known_offset=insn.mem.known_offset,
                base_symbol=insn.mem.base_symbol,
                may_be_aliased=insn.mem.may_be_aliased,
            )
        dst = insn.dst
        if dst is not None:
            if dst.rid in live_in or dst.rid not in defined:
                dst = map_reg(dst)
            else:
                fresh = new_reg(is_float=dst.is_float, name=dst.name)
                rename[dst.rid] = fresh
                dst = fresh
        hli_item = insn.hli_item
        if hli_item is not None:
            hli_item = maint.item_copy.get((hli_item, copy_index), None)
        clone = Insn(
            op=insn.op,
            dst=dst,
            srcs=new_srcs,
            mem=mem,
            label=insn.label,
            callee=insn.callee,
            line=insn.line,
            is_float=insn.is_float,
            imm=insn.imm,
            symbol=insn.symbol,
        )
        clone.hli_item = hli_item
        out.append(clone)
    return out


def run_unroll(
    fn: RTLFunction,
    factor: int,
    query: HLIQuery | None = None,
    entry: HLIEntry | None = None,
) -> UnrollStats:
    """Unroll eligible innermost loops of ``fn`` by ``factor`` (mutates it)."""
    stats = UnrollStats()
    if factor < 2 or query is None or entry is None:
        return stats
    with trace.span("backend.unroll", fn=fn.name, factor=factor):
        _run_unroll(fn, factor, query, entry, stats)
    if metrics.is_enabled():
        metrics.add("unroll.loops_unrolled", stats.loops_unrolled)
        metrics.add("unroll.copies_made", stats.copies_made)
        metrics.add("unroll.items_cloned", stats.items_cloned)
    return stats


def _run_unroll(
    fn: RTLFunction,
    factor: int,
    query: HLIQuery,
    entry: HLIEntry,
    stats: UnrollStats,
) -> None:
    for top, cont, exit_label in list(fn.loops):
        span = _loop_span(fn, top)
        if span is None:
            continue
        start, end = span
        segment = fn.insns[start + 1 : end]  # between LABEL top and J top
        inner_tops = {t for t, _, _ in fn.loops if t != top}
        if any(i.op is Opcode.LABEL and i.label in inner_tops for i in segment):
            continue
        if not _segment_is_unrollable(segment):
            continue
        region_id = _loop_region_of(segment, query)
        if region_id is None:
            continue
        region = entry.regions[region_id]
        if region.loop_trip <= 0 or region.loop_step == 0:
            continue
        if region.loop_trip % factor != 0 or region.loop_trip < factor:
            continue
        # Split the segment: [cond..BEQZ exit] stays once; the iteration
        # payload (body + step) is what gets replicated.
        guard_end = next(
            idx
            for idx, insn in enumerate(segment)
            if insn.op in (Opcode.BEQZ, Opcode.BNEZ)
        )
        if segment[guard_end].label != exit_label:
            continue  # guard does not exit this loop; be safe
        guard = segment[: guard_end + 1]
        payload = [i for i in segment[guard_end + 1 :] if i.op is not Opcode.LABEL]
        if not payload:
            continue
        maint = unroll_region(entry, region_id, factor)
        query.refresh()
        stats.maintenance.append(maint)
        stats.items_cloned += len(maint.item_copy)
        # Registers referenced outside the replicated payload (the guard,
        # code before/after the loop) are live across copies and must not
        # be renamed — e.g. a variable assigned every iteration and read
        # after the loop exits.
        payload_ids = {id(i) for i in payload}
        pinned: set[int] = set()
        for insn in fn.insns:
            if id(insn) in payload_ids:
                continue
            for s in insn.src_regs():
                pinned.add(s.rid)
            if insn.dst is not None:
                pinned.add(insn.dst.rid)
        new_segment = list(guard) + list(payload)
        for k in range(1, factor):
            new_segment.extend(_clone_segment(payload, k, maint, frozenset(pinned)))
            stats.copies_made += 1
        fn.insns[start + 1 : end] = new_segment
        stats.loops_unrolled += 1
        # the cont label vanished with the payload labels; fix loop record
        fn.loops = [
            (t, t if t == top else c, e) if t == top else (t, c, e)
            for t, c, e in fn.loops
        ]
