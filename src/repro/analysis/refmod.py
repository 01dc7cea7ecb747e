"""Interprocedural REF/MOD side-effect analysis.

For every function we compute the sets of abstract memory objects it may
*reference* (read) and *modify* (write), transitively through the call
graph.  The HLI call REF/MOD table (paper Section 2.2.4) is derived from
these sets, letting the back-end move memory operations across calls and
purge CSE tables selectively (paper Figure 4).

Effects are expressed over:

* named symbols (globals, statics, address-taken locals, arrays);
* :class:`ForeignObject` markers naming storage owned by *another*
  translation unit (injected by the whole-program linker's summaries,
  :mod:`repro.linker`);
* :data:`~repro.analysis.alias.TOP` meaning "any addressable object"
  (used for external functions and unanalyzable stores).

In whole-program mode the linker passes ``external_effects`` — per-name
:class:`EffectSet` values derived from cross-module summaries — and those
replace the all-clobbering default for extern functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend import ast_nodes as ast
from ..frontend.semantic import PURE_EXTERNALS
from ..frontend.symbols import StorageClass, Symbol, SymbolTable
from .alias import TOP, HeapObject, PointsToResult
from .items import Access, AccessKind, AccessRole, function_accesses, ref_base


@dataclass(frozen=True)
class ForeignObject:
    """Abstract object for storage defined in another translation unit.

    ``name`` is the linker's canonical spelling, :func:`link_name`.  A
    ForeignObject can never equal a unit's own :class:`Symbol`; overlap
    with local equivalence classes is decided by the HLI builder (a deref
    class whose base may point anywhere may reach foreign storage).
    """

    name: str


def link_name(obj: object, unit: str) -> str | None:
    """The linker's canonical spelling of abstract object ``obj`` of
    translation unit ``unit``.

    A bare name for true globals (they are unified across units),
    ``{unit}::{name}@{line}`` for unit-private storage (statics,
    address-taken locals, arrays), ``{unit}::{heap}`` for allocation
    sites, and ``None`` for storage no other function can name:
    register-promoted locals and the ``__argslot`` call-sequence area.
    """
    if isinstance(obj, HeapObject):
        return f"{unit}::{obj.name}"
    if not isinstance(obj, Symbol):
        return None
    if obj.storage is StorageClass.GLOBAL:
        return None if obj.name.startswith("__argslot") else obj.name
    if obj.storage is StorageClass.STATIC or obj.address_taken or obj.ty.is_array:
        return f"{unit}::{obj.name}@{obj.line}"
    return None


@dataclass
class EffectSet:
    """REF and MOD object sets for one function."""

    ref: set = field(default_factory=set)
    mod: set = field(default_factory=set)

    @property
    def clobbers_all(self) -> bool:
        return TOP in self.mod

    @property
    def reads_all(self) -> bool:
        return TOP in self.ref

    def union_update(self, other: "EffectSet") -> bool:
        """Merge ``other`` in; True if anything changed."""
        before = (len(self.ref), len(self.mod))
        self.ref |= other.ref
        self.mod |= other.mod
        return (len(self.ref), len(self.mod)) != before


class RefModAnalysis:
    """Fixpoint REF/MOD computation over the call graph."""

    def __init__(
        self,
        program: ast.Program,
        table: SymbolTable,
        pts: PointsToResult,
        external_effects: dict[str, EffectSet] | None = None,
    ) -> None:
        self.program = program
        self.table = table
        self.pts = pts
        self.external_effects = external_effects or {}
        self.effects: dict[str, EffectSet] = {}
        self._callees: dict[str, set[str]] = {}
        self._naming: dict[str, object] | None = None

    def run(self) -> dict[str, EffectSet]:
        for fn in self.program.functions:
            self.effects[fn.name] = self._local(fn)
        # external functions: linker-provided summaries beat the
        # all-clobbering default (whole-program mode); pure builtins are
        # effect-free either way.
        for name, fsym in self.table.functions.items():
            if fsym.external and name not in self.effects:
                linked = self.external_effects.get(name)
                if linked is not None:
                    self.effects[name] = self._bind_linked(linked)
                elif name in PURE_EXTERNALS:
                    self.effects[name] = EffectSet()
                else:
                    self.effects[name] = EffectSet(ref={TOP}, mod={TOP})
        changed = True
        while changed:
            changed = False
            for fn in self.program.functions:
                mine = self.effects[fn.name]
                for callee in self._callees.get(fn.name, ()):  # includes externals
                    callee_eff = self.effects.get(callee)
                    if callee_eff is None:
                        callee_eff = EffectSet(ref={TOP}, mod={TOP})
                    if mine.union_update(callee_eff):
                        changed = True
        return self.effects

    # -- per-function local effects -------------------------------------------

    def _local(self, fn: ast.FuncDef) -> EffectSet:
        eff = EffectSet()
        callees: set[str] = set()
        for acc in function_accesses(fn):
            self._record(acc, eff)
            if acc.role is AccessRole.CALLSITE and isinstance(acc.node, ast.Call):
                callees.add(acc.node.callee)
        self._callees[fn.name] = callees
        # Local non-escaping variables are invisible to callers: drop them.
        eff.ref = {o for o in eff.ref if self._visible(o, fn)}
        eff.mod = {o for o in eff.mod if self._visible(o, fn)}
        return eff

    def _record(self, acc: Access, eff: EffectSet) -> None:
        if acc.kind is AccessKind.CALL:
            return
        if acc.role in (AccessRole.STACK_ARG, AccessRole.ENTRY_PARAM):
            return  # arg-area traffic is call-sequence private
        base, is_deref = ref_base(acc.node)
        if base is None:
            objs = {TOP}
        elif is_deref:
            objs = self.pts.targets(base) or {TOP}
        else:
            objs = {base}
        if acc.kind is AccessKind.LOAD:
            eff.ref |= objs
        else:
            eff.mod |= objs

    # -- linked-summary binding -----------------------------------------------

    def _bind_linked(self, linked: EffectSet) -> EffectSet:
        """Rebind a linker effect set into this parse's object vocabulary.

        The adapter ships name-keyed :class:`ForeignObject` markers —
        :class:`Symbol` identity does not survive a re-parse: the driver
        parses each unit once and compiles it on its link-phase parse,
        but lint's HLI006 reference rebuild and a session's lazy
        ``Compilation.frontend`` parse the unit again and bind the same
        effects to their own symbols.
        Names that denote this unit's own storage — bare globals,
        ``{this unit}::…`` qualified spellings, heap sites — become the
        matching objects of the *current* parse, so direct equivalence
        classes see cross-module effects; everything else stays foreign
        and only matches may-point-anywhere deref classes.
        """
        naming = self._own_names()

        def bind(objs: set) -> set:
            return {
                naming.get(o.name, o) if isinstance(o, ForeignObject) else o
                for o in objs
            }

        return EffectSet(ref=bind(linked.ref), mod=bind(linked.mod))

    def _own_names(self) -> dict[str, object]:
        """:func:`link_name` -> this parse's abstract object, over the
        current program/table/points-to artifacts."""
        if self._naming is not None:
            return self._naming
        out: dict[str, object] = {}
        unit = self.program.filename

        def add(obj: object) -> None:
            name = link_name(obj, unit)
            if name is not None:
                out[name] = obj

        for sym in self.table.global_scope.names.values():
            add(sym)
        for fn in self.program.functions:
            for p in fn.params:
                add(p.symbol)
            if fn.body is not None:
                for stmt in ast.walk_stmts(fn.body):
                    if isinstance(stmt, ast.VarDecl):
                        add(stmt.symbol)
        for targets in self.pts.points_to.values():
            for t in targets:
                if isinstance(t, HeapObject):
                    add(t)
        self._naming = out
        return out

    def _visible(self, obj, fn: ast.FuncDef) -> bool:
        """Is ``obj`` observable outside ``fn``?

        Globals, statics, heap objects, TOP, and anything reachable through
        parameters are visible; purely local storage is not.  We keep
        address-taken locals (their address may have been passed out) and
        all heap objects.
        """
        if obj is TOP:
            return True
        if not isinstance(obj, Symbol):
            return True  # HeapObject / ForeignObject
        if obj.storage in (StorageClass.GLOBAL, StorageClass.STATIC):
            return True
        if obj.storage is StorageClass.PARAM:
            return True  # array/pointer params name caller storage
        return obj.address_taken


def analyze_refmod(
    program: ast.Program,
    table: SymbolTable,
    pts: PointsToResult,
    external_effects: dict[str, EffectSet] | None = None,
) -> dict[str, EffectSet]:
    """Compute transitive REF/MOD sets for every function (and externals)."""
    return RefModAnalysis(program, table, pts, external_effects=external_effects).run()
