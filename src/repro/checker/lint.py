"""``hli-lint`` — replay every HLI claim the back-end consumes.

The auditor combines three independent evidence sources:

1. **The dependence oracle** (:mod:`repro.checker.oracle`): HLI-free
   proofs over the RTL.  A ``get_equiv_acc`` ``NONE`` verdict between
   references the oracle proves MUST-overlap, or a ``DEFINITE`` verdict
   between references it proves DISJOINT, is flagged as unsound
   (``HLI001`` / ``HLI008``); likewise ``get_call_acc`` verdicts that
   omit a callee's provable must-effects (``HLI002``).
2. **Structural invariants** of the tables themselves — unique class
   membership, dangling class references, ill-formed LCDD arcs, and the
   line-table ↔ RTL mapping contract (``HLI003``–``HLI006``).  These run
   after maintenance too, which is where Section 3.2.3 bugs surface.
3. **Reference rebuild**: for a compilation whose entry is still at
   generation 0 (no maintenance applied), the front-end analysis is
   deterministic, so rebuilding the HLI from source must reproduce the
   tables bit-for-bit.  Any divergence is classified per table
   (``HLI003``/``HLI004``/``HLI005``/``HLI006``).

Dynamic-trace auditing (ground truth from execution) lives in
:mod:`repro.checker.dynamic`.
"""

from __future__ import annotations

from typing import Optional

from ..backend.rtl import Insn, Opcode, RTLFunction
from ..hli.query import CallAcc, EquivAcc, HLIQuery
from ..hli.tables import DepType, HLIEntry, ItemType, RegionEntry
from .oracle import CallEffectOracle, DepVerdict
from .rules import (
    Diagnostic,
    HLI001_UNSOUND_NODEP,
    HLI002_UNSOUND_CALL_NODEP,
    HLI003_EQCLASS_MEMBERSHIP,
    HLI004_LCDD_DISTANCE,
    HLI005_REFMOD_SUMMARY,
    HLI006_STALE_MAPPING,
    HLI007_STALE_QUERY,
    HLI008_UNSOUND_DEFINITE,
    LintReport,
    filter_suppressed,
)

#: Pair-replay budget per function; beyond it the auditor degrades to
#: same-basic-block pairs (what the scheduler actually consumes).
MAX_PAIRS_PER_FUNCTION = 200_000


def _expected_type(insn: Insn) -> ItemType:
    if insn.op is Opcode.CALL:
        return ItemType.CALL
    assert insn.mem is not None
    return ItemType.STORE if insn.mem.is_store else ItemType.LOAD


class HLILinter:
    """Audit one :class:`~repro.driver.compile.Compilation`."""

    def __init__(self, comp, max_pairs: int = MAX_PAIRS_PER_FUNCTION) -> None:
        self.comp = comp
        self.max_pairs = max_pairs
        self.report = LintReport(target=comp.filename)
        self._call_oracle = CallEffectOracle(comp.rtl)
        self._reference: Optional[dict[str, HLIEntry]] = None

    # -- entry point -----------------------------------------------------------

    def run(self) -> LintReport:
        for name, fn in self.comp.rtl.functions.items():
            entry = self.comp.hli.entries.get(name)
            if entry is None:
                continue
            query = HLIQuery(entry)
            self._check_consumer_queries(name, entry)
            self._check_structure(entry)
            self._check_mapping(fn, entry)
            self._replay_equiv_claims(fn, entry, query)
            self._replay_call_claims(fn, entry, query)
            if entry.generation == 0:
                self._check_against_reference(name, entry)
        return self.report

    # -- helpers ---------------------------------------------------------------

    def _emit(self, rule, entry: HLIEntry, line: int, message: str, source="static"):
        self.report.add(
            Diagnostic(
                rule=rule,
                unit=entry.unit_name,
                line=line,
                message=message,
                source=source,
            )
        )

    @staticmethod
    def _item_lines(entry: HLIEntry) -> dict[int, tuple[int, ItemType]]:
        out: dict[int, tuple[int, ItemType]] = {}
        for le in entry.line_table.entries.values():
            for iid, ty in le.items:
                out[iid] = (le.line, ty)
        return out

    # -- HLI007: consumers holding stale queries -------------------------------

    def _check_consumer_queries(self, name: str, entry: HLIEntry) -> None:
        query = self.comp.queries.get(name)
        self.report.count_claim("consumer_queries")
        if query is not None and query.is_stale:
            self._emit(
                HLI007_STALE_QUERY,
                entry,
                0,
                f"compilation query for unit '{name}' was built at generation "
                f"{query.generation} but the entry is at {entry.generation}",
            )

    # -- HLI003/HLI004/HLI005: structural invariants ---------------------------

    def _check_structure(self, entry: HLIEntry) -> None:
        item_lines = self._item_lines(entry)
        home: dict[int, int] = {}
        class_region: dict[int, int] = {}
        for region in entry.regions.values():
            for cls in region.eq_classes:
                if cls.class_id in class_region:
                    self._emit(
                        HLI003_EQCLASS_MEMBERSHIP,
                        entry,
                        region.line_start,
                        f"class {cls.class_id} defined in regions "
                        f"{class_region[cls.class_id]} and {region.region_id}",
                    )
                class_region[cls.class_id] = region.region_id
                for iid in cls.member_items:
                    self.report.count_claim("eqclass_items")
                    if iid in home:
                        self._emit(
                            HLI003_EQCLASS_MEMBERSHIP,
                            entry,
                            item_lines.get(iid, (region.line_start, None))[0],
                            f"item {iid} is a member of classes {home[iid]} "
                            f"and {cls.class_id}",
                        )
                    home[iid] = cls.class_id
        for region in entry.regions.values():
            valid_here = {c.class_id for c in region.eq_classes}
            for cls in region.eq_classes:
                for sub in cls.member_classes:
                    if sub not in class_region:
                        self._emit(
                            HLI003_EQCLASS_MEMBERSHIP,
                            entry,
                            region.line_start,
                            f"class {cls.class_id} lifts unknown class {sub}",
                        )
            for arc in region.lcdd_entries:
                self.report.count_claim("lcdd_arcs")
                if arc.src_class not in valid_here or arc.dst_class not in valid_here:
                    self._emit(
                        HLI004_LCDD_DISTANCE,
                        entry,
                        region.line_start,
                        f"LCDD arc {arc.src_class}->{arc.dst_class} references "
                        f"classes outside region {region.region_id}",
                    )
                if arc.distance is None and arc.dep_type is DepType.DEFINITE:
                    self._emit(
                        HLI004_LCDD_DISTANCE,
                        entry,
                        region.line_start,
                        f"DEFINITE LCDD arc {arc.src_class}->{arc.dst_class} "
                        "has unknown distance",
                    )
                if arc.distance is not None and arc.distance < 1:
                    self._emit(
                        HLI004_LCDD_DISTANCE,
                        entry,
                        region.line_start,
                        f"LCDD arc {arc.src_class}->{arc.dst_class} has "
                        f"non-positive distance {arc.distance}",
                    )
            for rm in region.refmod_entries:
                self.report.count_claim("refmod_entries")
                for cid in list(rm.ref_classes) + list(rm.mod_classes):
                    if cid not in valid_here:
                        self._emit(
                            HLI005_REFMOD_SUMMARY,
                            entry,
                            region.line_start,
                            f"REF/MOD entry for key {rm.key_id} references "
                            f"class {cid} outside region {region.region_id}",
                        )

    # -- HLI006: line-table / RTL mapping --------------------------------------

    def _check_mapping(self, fn: RTLFunction, entry: HLIEntry) -> None:
        item_lines = self._item_lines(entry)
        homed: set[int] = {
            iid
            for region in entry.regions.values()
            for cls in region.eq_classes
            for iid in cls.member_items
        }
        for insn in fn.insns:
            if insn.hli_item is None:
                continue
            if insn.mem is None and insn.op is not Opcode.CALL:
                continue
            self.report.count_claim("mapping_refs")
            info = item_lines.get(insn.hli_item)
            if info is None:
                self._emit(
                    HLI006_STALE_MAPPING,
                    entry,
                    insn.line,
                    f"instruction maps to item {insn.hli_item} which is no "
                    "longer in the line table",
                )
                continue
            line, ty = info
            if line != insn.line:
                self._emit(
                    HLI006_STALE_MAPPING,
                    entry,
                    insn.line,
                    f"item {insn.hli_item} is recorded on line {line} but the "
                    f"instruction carries line {insn.line}",
                )
            if ty is not _expected_type(insn):
                self._emit(
                    HLI006_STALE_MAPPING,
                    entry,
                    insn.line,
                    f"item {insn.hli_item} has access type {ty.name} but the "
                    f"instruction is a {_expected_type(insn).name}",
                )
            if insn.op is not Opcode.CALL and insn.hli_item not in homed:
                self._emit(
                    HLI006_STALE_MAPPING,
                    entry,
                    insn.line,
                    f"item {insn.hli_item} is in the line table but not in any "
                    "equivalence class",
                )

    # -- HLI001/HLI008: equivalent-access replay -------------------------------

    def _replay_equiv_claims(
        self, fn: RTLFunction, entry: HLIEntry, query: HLIQuery
    ) -> None:
        mems = [i for i in fn.insns if i.mem is not None and i.hli_item is not None]
        if not mems:
            return
        oracle = self._call_oracle.oracle_for(fn.name)
        if oracle is None:
            return
        n = len(mems)
        same_block_only = n * (n - 1) // 2 > self.max_pairs
        for x in range(n):
            a = mems[x]
            for y in range(x + 1, n):
                b = mems[y]
                assert a.mem is not None and b.mem is not None
                if not (a.mem.is_store or b.mem.is_store):
                    continue
                if same_block_only and oracle.block_of.get(
                    a.uid
                ) != oracle.block_of.get(b.uid):
                    continue
                self.report.count_claim("equiv_pairs")
                verdict = query.get_equiv_acc(a.hli_item, b.hli_item)
                if verdict is EquivAcc.NONE:
                    if oracle.classify(a, b) is DepVerdict.MUST:
                        self._emit(
                            HLI001_UNSOUND_NODEP,
                            entry,
                            a.line,
                            f"items {a.hli_item} (line {a.line}) and "
                            f"{b.hli_item} (line {b.line}) are declared "
                            f"independent but both access "
                            f"{oracle.addr_of(a).symbol}"
                            f"+{oracle.addr_of(a).offset}",
                        )
                elif verdict is EquivAcc.DEFINITE:
                    if oracle.classify(a, b) is DepVerdict.DISJOINT:
                        self._emit(
                            HLI008_UNSOUND_DEFINITE,
                            entry,
                            a.line,
                            f"items {a.hli_item} (line {a.line}) and "
                            f"{b.hli_item} (line {b.line}) are declared "
                            "same-location but provably access disjoint "
                            "storage",
                        )

    # -- HLI002: call REF/MOD replay -------------------------------------------

    def _replay_call_claims(
        self, fn: RTLFunction, entry: HLIEntry, query: HLIQuery
    ) -> None:
        calls = [
            i
            for i in fn.insns
            if i.op is Opcode.CALL and i.hli_item is not None and i.callee is not None
        ]
        mems = [i for i in fn.insns if i.mem is not None and i.hli_item is not None]
        if not calls or not mems:
            return
        oracle = self._call_oracle.oracle_for(fn.name)
        if oracle is None:
            return
        for call in calls:
            effects = self._call_oracle.must_effects(call.callee)
            if not effects.ref and not effects.mod:
                continue
            for mem in mems:
                self.report.count_claim("call_pairs")
                acc = query.get_call_acc(mem.hli_item, call.hli_item)
                if acc not in (CallAcc.NONE, CallAcc.REF):
                    continue
                addr = oracle.addr_of(mem)
                assert mem.mem is not None
                width = mem.mem.width
                must_mod = CallEffectOracle.touches(effects.mod, addr, width)
                must_ref = CallEffectOracle.touches(effects.ref, addr, width)
                if must_mod or (acc is CallAcc.NONE and must_ref):
                    missing = "writes" if must_mod else "reads"
                    self._emit(
                        HLI002_UNSOUND_CALL_NODEP,
                        entry,
                        mem.line,
                        f"get_call_acc({mem.hli_item}, {call.hli_item}) = "
                        f"{acc.value.upper()} but callee '{call.callee}' "
                        f"provably {missing} {addr.symbol}+{addr.offset}",
                    )

    # -- reference rebuild (generation 0 only) ---------------------------------

    def _reference_entries(self) -> dict[str, HLIEntry]:
        if self._reference is None:
            from ..analysis.builder import build_hli
            from ..frontend import parse_and_check

            program, table = parse_and_check(self.comp.source, self.comp.filename)
            hli, _ = build_hli(
                program, table, external_effects=self.comp.external_effects
            )
            self._reference = hli.entries
        return self._reference

    def _check_against_reference(self, name: str, entry: HLIEntry) -> None:
        try:
            ref = self._reference_entries().get(name)
        except Exception as exc:  # source no longer parses: cannot rebuild
            self._emit(
                HLI006_STALE_MAPPING,
                entry,
                0,
                f"reference rebuild failed: {exc}",
                source="rebuild",
            )
            self._reference = {}
            return
        if ref is None:
            return
        self.report.count_claim("rebuild_units")
        item_lines = self._item_lines(entry)

        def line_of(iids) -> int:
            for iid in iids:
                if iid in item_lines:
                    return item_lines[iid][0]
            return 0

        # line table
        lt_have = {le.line: list(le.items) for le in entry.line_table.entries.values()}
        lt_want = {le.line: list(le.items) for le in ref.line_table.entries.values()}
        for line in sorted(set(lt_have) | set(lt_want)):
            if lt_have.get(line, []) != lt_want.get(line, []):
                self._emit(
                    HLI006_STALE_MAPPING,
                    entry,
                    line,
                    "line-table items differ from the front-end analysis "
                    f"(have {lt_have.get(line, [])}, expected {lt_want.get(line, [])})",
                    source="rebuild",
                )
        for rid in sorted(set(entry.regions) | set(ref.regions)):
            have, want = entry.regions.get(rid), ref.regions.get(rid)
            if have is None or want is None:
                self._emit(
                    HLI003_EQCLASS_MEMBERSHIP,
                    entry,
                    0,
                    f"region {rid} {'missing' if have is None else 'unexpected'} "
                    "versus the front-end analysis",
                    source="rebuild",
                )
                continue
            self._diff_region(entry, have, want, line_of)

    def _diff_region(self, entry: HLIEntry, have: RegionEntry, want: RegionEntry, line_of):
        def class_map(region: RegionEntry):
            return {
                c.class_id: (
                    c.equiv_type,
                    tuple(sorted(c.member_items)),
                    tuple(sorted(c.member_classes)),
                )
                for c in region.eq_classes
            }

        ch, cw = class_map(have), class_map(want)
        for cid in sorted(set(ch) | set(cw)):
            if ch.get(cid) != cw.get(cid):
                members = (ch.get(cid) or cw.get(cid))[1]
                self._emit(
                    HLI003_EQCLASS_MEMBERSHIP,
                    entry,
                    line_of(members),
                    f"class {cid} in region {have.region_id} diverged from the "
                    f"front-end analysis (have {ch.get(cid)}, expected {cw.get(cid)})",
                    source="rebuild",
                )
        ah = {a.class_ids for a in have.alias_entries}
        aw = {a.class_ids for a in want.alias_entries}
        for ids in sorted(ah ^ aw, key=sorted):
            self._emit(
                HLI003_EQCLASS_MEMBERSHIP,
                entry,
                have.line_start,
                f"alias set {sorted(ids)} in region {have.region_id} "
                f"{'unexpected' if ids in ah else 'missing'} versus the "
                "front-end analysis",
                source="rebuild",
            )
        dh = {(d.src_class, d.dst_class, d.dep_type, d.distance) for d in have.lcdd_entries}
        dw = {(d.src_class, d.dst_class, d.dep_type, d.distance) for d in want.lcdd_entries}
        for arc in sorted(dh ^ dw, key=repr):
            src, dst, dep, dist = arc
            self._emit(
                HLI004_LCDD_DISTANCE,
                entry,
                have.line_start,
                f"LCDD arc {src}->{dst} ({dep.name}, distance {dist}) in region "
                f"{have.region_id} {'unexpected' if arc in dh else 'missing'} "
                "versus the front-end analysis",
                source="rebuild",
            )
        def rm_map(region: RegionEntry):
            return {
                (m.key_kind, m.key_id): (
                    tuple(sorted(m.ref_classes)),
                    tuple(sorted(m.mod_classes)),
                    m.ref_all,
                    m.mod_all,
                )
                for m in region.refmod_entries
            }

        mh, mw = rm_map(have), rm_map(want)
        for key in sorted(set(mh) | set(mw), key=repr):
            if mh.get(key) != mw.get(key):
                self._emit(
                    HLI005_REFMOD_SUMMARY,
                    entry,
                    have.line_start,
                    f"REF/MOD entry {key[0].name}:{key[1]} in region "
                    f"{have.region_id} diverged from the front-end analysis "
                    f"(have {mh.get(key)}, expected {mw.get(key)})",
                    source="rebuild",
                )


def lint_compilation(comp, suppress=None, max_pairs: int = MAX_PAIRS_PER_FUNCTION) -> LintReport:
    """Audit a compilation; returns the (possibly filtered) report."""
    from ..obs import metrics, trace

    with trace.span("checker.lint", file=comp.filename):
        report = HLILinter(comp, max_pairs=max_pairs).run()
        report = filter_suppressed(report, suppress)
    if metrics.is_enabled():
        metrics.add("lint.findings", len(report.diagnostics))
        metrics.add("lint.claims_checked", sum(report.claims_checked.values()))
        metrics.add("lint.suppressed", report.suppressed)
    return report
