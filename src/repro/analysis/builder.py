"""HLI construction — ITEMGEN + TBLCONST orchestration (paper Section 3.1).

:class:`HLIBuilder` turns a checked MiniC program into an
:class:`~repro.hli.tables.HLIFile`:

1. per function, build the region tree;
2. ITEMGEN: walk statements in canonical order, generating memory access
   items and the line table;
3. TBLCONST: visit the region tree bottom-up, partitioning items into
   equivalent access classes and computing alias, LCDD, and call REF/MOD
   tables per region.

The builder also retains analysis-side artifacts (region trees, item
objects) in :class:`FrontEndInfo` for tests and for the ground-truth
contract checks between front-end items and back-end memory references.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..frontend import ast_nodes as ast
from ..frontend.symbols import Symbol, SymbolTable
from ..obs import metrics, trace
from ..hli.tables import (
    AliasEntry,
    EqClass,
    HLIEntry,
    HLIFile,
    ItemType,
    RefModEntry,
    RefModKey,
    RegionEntry,
    RegionType,
)
from .alias import TOP, PointsToResult, analyze_points_to
from .eqclasses import ClassInfo, PartitionOptions, RegionPartitioner
from .items import (
    Access,
    AccessKind,
    AccessRole,
    ItemGenerator,
    MemoryItem,
    NUM_ARG_REGS,
    walk_rvalue,
    walk_stmt_accesses,
)
from .refmod import EffectSet, ForeignObject, analyze_refmod
from .regions import Region, RegionTreeBuilder
from .subscripts import Affine

_ITEM_TYPE = {
    AccessKind.LOAD: ItemType.LOAD,
    AccessKind.STORE: ItemType.STORE,
    AccessKind.CALL: ItemType.CALL,
}


@dataclass
class UnitInfo:
    """Analysis artifacts for one function, kept alongside the HLI entry."""

    fn: ast.FuncDef
    root: Region
    items: list[MemoryItem] = field(default_factory=list)
    #: item_id -> Region (immediately enclosing)
    item_region: dict[int, Region] = field(default_factory=dict)
    #: region_id -> Region object
    region_by_id: dict[int, Region] = field(default_factory=dict)
    #: items grouped per region id, in generation order
    region_items: dict[int, list[MemoryItem]] = field(default_factory=dict)
    #: final ClassInfo per class id
    class_info: dict[int, ClassInfo] = field(default_factory=dict)


@dataclass
class FrontEndInfo:
    """Whole-program analysis results."""

    program: ast.Program
    table: SymbolTable
    pts: PointsToResult
    refmod: dict[str, EffectSet]
    units: dict[str, UnitInfo] = field(default_factory=dict)


class HLIBuilder:
    """Build the HLI file for a whole program.

    ``pts`` hands over a points-to result already computed for this very
    ``program`` and ``table`` (symbols are compared by identity, so a
    result from another parse of the same source would match nothing);
    the builder then skips the analysis.
    """

    def __init__(
        self,
        program: ast.Program,
        table: SymbolTable,
        partition_options: PartitionOptions | None = None,
        external_effects: dict[str, EffectSet] | None = None,
        pts: PointsToResult | None = None,
    ) -> None:
        self.program = program
        self.table = table
        self.external_effects = external_effects
        if pts is None:
            with trace.span("analysis.points_to"):
                pts = analyze_points_to(program, table)
        self.pts = pts
        with trace.span("analysis.refmod"):
            self.refmod = analyze_refmod(
                program, table, self.pts, external_effects=external_effects
            )
        self.partition_options = partition_options or PartitionOptions()

    def build_unit(self, fn: ast.FuncDef) -> tuple[HLIEntry, UnitInfo]:
        """ITEMGEN + TBLCONST for a single function.

        Item, class, and region IDs are allocated from per-unit counters,
        so one function's entry is byte-stable no matter what other
        functions in the file look like — the property the per-function
        artifact cache relies on.
        """
        with trace.span("analysis.unit", fn=fn.name):
            return _UnitBuilder(fn, self).run()

    def build(self) -> tuple[HLIFile, FrontEndInfo]:
        hli = HLIFile(source_filename=self.program.filename)
        info = FrontEndInfo(
            program=self.program, table=self.table, pts=self.pts, refmod=self.refmod
        )
        for fn in self.program.functions:
            entry, unit = self.build_unit(fn)
            hli.add(entry)
            info.units[fn.name] = unit
            if metrics.is_enabled():
                metrics.add("analysis.items", len(unit.items))
                metrics.add("analysis.regions", len(entry.regions))
                metrics.add(
                    "analysis.classes",
                    sum(len(r.eq_classes) for r in entry.regions.values()),
                )
        return hli, info


class _UnitBuilder:
    """ITEMGEN + TBLCONST for one function."""

    def __init__(self, fn: ast.FuncDef, parent: HLIBuilder) -> None:
        self.fn = fn
        self.parent = parent
        self._counter = itertools.count(1)
        self.gen = ItemGenerator(self._next_id)
        self.tree = RegionTreeBuilder()
        self.entry = HLIEntry(unit_name=fn.name, filename=parent.program.filename)
        self.unit = UnitInfo(fn=fn, root=None)  # type: ignore[arg-type]

    def _next_id(self) -> int:
        return next(self._counter)

    # -- driver ----------------------------------------------------------------

    def run(self) -> tuple[HLIEntry, UnitInfo]:
        root = self.tree.build(self.fn)
        self.unit.root = root
        for r in root.walk():
            self.unit.region_by_id[r.region_id] = r
            self.unit.region_items[r.region_id] = []
        self.entry.root_region_id = root.region_id

        with trace.span("analysis.itemgen"):
            self._gen_entry_param_items(root)
            assert self.fn.body is not None
            for stmt in self.fn.body.stmts:
                self._visit(stmt, root)

            # Line table, in generation order per line.
            for item in self.gen.items:
                self.entry.line_table.add_item(
                    item.line, item.item_id, _ITEM_TYPE[item.kind]
                )
            self.unit.items = list(self.gen.items)
            self.unit.item_region = {
                iid: r for iid, r in self.gen.item_region.items()  # type: ignore[misc]
            }

        with trace.span("analysis.tblconst"):
            self._build_region_tables(root)
        return self.entry, self.unit

    # -- ITEMGEN traversal -------------------------------------------------------

    def _gen(
        self,
        accesses: list[Access],
        region: Region,
        exprs: list[ast.Expr] | None = None,
        stmt: ast.Stmt | None = None,
    ) -> None:
        """Generate items for one statement-group of accesses.

        ``exprs`` are the group's expressions; scalars they assign taint
        the group's items (no epoch rescue) and bump the epoch counters
        afterwards, in walk order — which mirrors execution order within
        one iteration.
        """
        from .items import assigned_in_stmt, assigned_scalars

        assigned: set[int] = set()
        for e in exprs or ():
            assigned |= assigned_scalars(e)
        if stmt is not None:
            assigned |= assigned_in_stmt(stmt)
        items = self.gen.gen_for_accesses(accesses, region, tainted=assigned)
        self.unit.region_items[region.region_id].extend(items)
        self.gen.bump_epochs(assigned)

    def _gen_entry_param_items(self, root: Region) -> None:
        """ABI-induced items at function entry (paper Section 3.1.1)."""
        for idx, p in enumerate(self.fn.params):
            sym = p.symbol
            if not isinstance(sym, Symbol):
                continue
            if idx >= NUM_ARG_REGS:
                # Stack parameter: a load from the incoming arg area.
                name = ast.Name(line=self.fn.line, ident=p.name)
                name.symbol = sym
                name.ty = sym.ty
                acc = Access(
                    name,
                    AccessKind.LOAD,
                    self.fn.line,
                    AccessRole.ENTRY_PARAM,
                    arg_index=idx,
                )
                self._gen([acc], root)
            elif sym.in_memory and not sym.ty.is_array:
                # Register parameter spilled to memory (address taken).
                name = ast.Name(line=self.fn.line, ident=p.name)
                name.symbol = sym
                name.ty = sym.ty
                self._gen([Access(name, AccessKind.STORE, self.fn.line)], root)

    def _visit(self, stmt: ast.Stmt, region: Region) -> None:
        if isinstance(stmt, ast.For):
            loop_region = self.tree.loop_regions[id(stmt)]
            if stmt.init is not None:
                self._gen(
                    list(walk_stmt_accesses(stmt.init)),
                    region,
                    stmt=stmt.init,
                )
            if stmt.cond is not None:
                self._gen(list(walk_rvalue(stmt.cond)), loop_region, [stmt.cond])
            if stmt.body is not None:
                self._visit_body(stmt.body, loop_region)
            if stmt.step is not None:
                self._gen(list(walk_rvalue(stmt.step)), loop_region, [stmt.step])
            return
        if isinstance(stmt, ast.While):
            loop_region = self.tree.loop_regions[id(stmt)]
            self._gen(
                list(walk_rvalue(stmt.cond)) if stmt.cond else [],
                loop_region,
                [stmt.cond] if stmt.cond else [],
            )
            if stmt.body is not None:
                self._visit_body(stmt.body, loop_region)
            return
        if isinstance(stmt, ast.DoWhile):
            loop_region = self.tree.loop_regions[id(stmt)]
            if stmt.body is not None:
                self._visit_body(stmt.body, loop_region)
            self._gen(
                list(walk_rvalue(stmt.cond)) if stmt.cond else [],
                loop_region,
                [stmt.cond] if stmt.cond else [],
            )
            return
        if isinstance(stmt, ast.If):
            if stmt.cond is not None:
                self._gen(list(walk_rvalue(stmt.cond)), region, [stmt.cond])
            if stmt.then is not None:
                self._visit(stmt.then, region)
            if stmt.otherwise is not None:
                self._visit(stmt.otherwise, region)
            return
        if isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                self._visit(s, region)
            return
        if isinstance(stmt, ast.DeclGroup):
            for d in stmt.decls:
                self._visit(d, region)
            return
        self._gen(list(walk_stmt_accesses(stmt)), region, stmt=stmt)

    def _visit_body(self, body: ast.Stmt, region: Region) -> None:
        if isinstance(body, ast.Block):
            for s in body.stmts:
                self._visit(s, region)
        else:
            self._visit(body, region)

    # -- TBLCONST ---------------------------------------------------------------

    def _build_region_tables(self, root: Region) -> None:
        lifted: dict[int, list[ClassInfo]] = {}

        def rec(region: Region) -> list[ClassInfo]:
            sub_classes: list[ClassInfo] = []
            for child in region.children:
                sub_classes.extend(rec(child))
            part = RegionPartitioner(
                region=region,
                items=self.unit.region_items[region.region_id],
                lifted=sub_classes,
                pts=self.parent.pts,
                next_id=self._next_id,
                options=self.parent.partition_options,
            )
            result = part.run()
            self._emit_region_entry(region, result)
            for c in result.classes:
                self.unit.class_info[c.class_id] = c
            lifted[region.region_id] = result.classes
            return result.classes

        rec(root)

    def _emit_region_entry(self, region: Region, result) -> None:
        lines = [it.line for it in self.unit.region_items[region.region_id]]
        sub_ids = [c.region_id for c in region.children]
        line_start = region.line
        line_end = max(lines + [region.line] + [
            self.entry.regions[s].line_end for s in sub_ids if s in self.entry.regions
        ])
        loop_step = 0
        loop_trip = -1
        if region.loop is not None:
            loop_step = region.loop.step or 0
            trip = region.loop.trip_count()
            loop_trip = trip if trip is not None else -1
        entry = RegionEntry(
            region_id=region.region_id,
            region_type=RegionType.LOOP if region.kind.value == "loop" else RegionType.UNIT,
            parent_id=region.parent.region_id if region.parent else None,
            line_start=line_start,
            line_end=line_end,
            sub_region_ids=sub_ids,
            loop_step=loop_step,
            loop_trip=loop_trip,
        )
        for c in result.classes:
            entry.eq_classes.append(
                EqClass(
                    class_id=c.class_id,
                    equiv_type=c.equiv,
                    member_items=sorted(c.member_items),
                    member_classes=sorted(c.member_classes),
                    label=c.label,
                )
            )
        for a, b in result.alias_pairs:
            entry.alias_entries.append(AliasEntry(class_ids=frozenset((a, b))))
        entry.lcdd_entries.extend(result.lcdd)
        self._emit_refmod(region, entry, result.classes)
        self.entry.regions[region.region_id] = entry

    # -- REF/MOD table ------------------------------------------------------------

    def _effects_of_call_item(self, item: MemoryItem) -> EffectSet:
        assert item.callee is not None
        eff = self.parent.refmod.get(item.callee)
        if eff is None:
            return EffectSet(ref={TOP}, mod={TOP})
        return eff

    def _region_call_effects(self, region: Region) -> EffectSet:
        """Union of effects of every call transitively inside ``region``."""
        total = EffectSet()
        found = False
        for r in region.walk():
            for it in self.unit.region_items[r.region_id]:
                if it.kind is AccessKind.CALL:
                    total.union_update(self._effects_of_call_item(it))
                    found = True
        if not found:
            return EffectSet()
        return total

    def _classes_touched(self, objs: set, classes: list[ClassInfo]) -> list[int]:
        foreign = any(isinstance(o, ForeignObject) for o in objs)
        out: list[int] = []
        for c in classes:
            if c.base is None:
                out.append(c.class_id)
                continue
            if c.is_deref:
                if self.parent.pts.targets(c.base) & objs:
                    out.append(c.class_id)
                elif foreign and TOP in self.parent.pts.points_to.get(c.base, {TOP}):
                    # A pointer that may point anywhere may reach storage
                    # owned by another unit, so a foreign effect touches it.
                    out.append(c.class_id)
            elif c.base in objs:
                out.append(c.class_id)
        return sorted(set(out))

    def _emit_refmod(
        self, region: Region, entry: RegionEntry, classes: list[ClassInfo]
    ) -> None:
        # Calls immediately in this region: one entry per call item.
        for it in self.unit.region_items[region.region_id]:
            if it.kind is not AccessKind.CALL:
                continue
            eff = self._effects_of_call_item(it)
            entry.refmod_entries.append(
                RefModEntry(
                    key_kind=RefModKey.CALL_ITEM,
                    key_id=it.item_id,
                    ref_classes=[] if eff.reads_all else self._classes_touched(eff.ref, classes),
                    mod_classes=[] if eff.clobbers_all else self._classes_touched(eff.mod, classes),
                    ref_all=eff.reads_all,
                    mod_all=eff.clobbers_all,
                )
            )
        # Calls inside each immediate sub-region: one entry per sub-region.
        for child in region.children:
            eff = self._region_call_effects(child)
            if not eff.ref and not eff.mod:
                continue
            entry.refmod_entries.append(
                RefModEntry(
                    key_kind=RefModKey.SUBREGION,
                    key_id=child.region_id,
                    ref_classes=[] if eff.reads_all else self._classes_touched(eff.ref, classes),
                    mod_classes=[] if eff.clobbers_all else self._classes_touched(eff.mod, classes),
                    ref_all=eff.reads_all,
                    mod_all=eff.clobbers_all,
                )
            )


def build_hli(
    program: ast.Program,
    table: SymbolTable,
    partition_options: PartitionOptions | None = None,
    external_effects: dict[str, EffectSet] | None = None,
    pts: PointsToResult | None = None,
) -> tuple[HLIFile, FrontEndInfo]:
    """Convenience wrapper: build HLI for a checked program.

    ``external_effects`` (whole-program mode) carries linker-computed
    summaries for extern functions; see :mod:`repro.linker`.  ``pts``
    is this program's points-to result when the caller already has it
    (the linker's phase 1 computes it); ``None`` runs the analysis.
    """
    with trace.span("analysis.build_hli", file=program.filename):
        return HLIBuilder(
            program,
            table,
            partition_options,
            external_effects=external_effects,
            pts=pts,
        ).build()
