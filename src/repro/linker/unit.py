"""Per-unit analysis artifacts consumed by the whole-program linker.

:func:`analyze_unit` runs the unit-local front-end analyses (Andersen
points-to plus intraprocedural REF/MOD) and extracts, per function, a
:class:`LocalSummary` in the linker's *name space*:

* true globals keep their bare name (they are unified across units);
* unit-private storage (statics, address-taken locals, heap sites) gets a
  qualified ``{unit}::{name}@{line}`` spelling that can never collide
  with another unit's names;
* storage reachable only through a parameter becomes a *parameter
  effect* (``param_ref``/``param_mod`` index sets) that the link-time
  fixpoint instantiates per call site;
* anything unresolvable degrades to the ``ref_any``/``mod_any`` flags.

Call sites are recorded with per-argument bindings so parameter effects
propagate through call chains (the "points-to facts through call chains"
half of the summary computation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..analysis.alias import TOP, HeapObject, PointsToResult, analyze_points_to
from ..analysis.items import (
    Access,
    AccessKind,
    AccessRole,
    ref_for_access,
    walk_stmt_accesses,
)
from ..frontend import ast_nodes as ast
from ..frontend.symbols import StorageClass, Symbol, SymbolTable
from ..analysis.refmod import RefModAnalysis
from ..obs import trace

__all__ = [
    "ANY",
    "Binding",
    "CallSite",
    "LocalSummary",
    "UnitAnalysis",
    "analyze_unit",
]

#: Call-argument binding marker: the argument may point anywhere.
ANY = "<any>"

#: One call-argument binding: a set of canonical object names, a caller
#: parameter index the argument forwards (``("param", j)``), the
#: :data:`ANY` marker, or ``None`` for non-pointer arguments.
Binding = Union[frozenset, tuple, str, None]


@dataclass(frozen=True)
class CallSite:
    """One call with per-argument pointer bindings."""

    callee: str
    line: int
    bindings: tuple[Binding, ...]


@dataclass
class LocalSummary:
    """Intraprocedural effects of one function, in link name space."""

    name: str
    unit: str
    ref_names: set[str] = field(default_factory=set)
    mod_names: set[str] = field(default_factory=set)
    ref_any: bool = False
    mod_any: bool = False
    param_ref: set[int] = field(default_factory=set)
    param_mod: set[int] = field(default_factory=set)
    calls: list[CallSite] = field(default_factory=list)


@dataclass
class UnitAnalysis:
    """One translation unit plus its link-relevant analysis artifacts."""

    filename: str
    program: ast.Program
    table: SymbolTable
    pts: PointsToResult
    refmod: RefModAnalysis
    locals: dict[str, LocalSummary] = field(default_factory=dict)
    #: canonical name -> unit-local abstract object (Symbol or HeapObject)
    naming: dict[str, object] = field(default_factory=dict)

    def defined_functions(self) -> list[str]:
        return [fn.name for fn in self.program.functions]


class _SummaryExtractor:
    """Extract :class:`LocalSummary` values for every function of a unit."""

    def __init__(self, unit: UnitAnalysis) -> None:
        self.unit = unit
        self.pts = unit.pts

    # -- canonical naming --------------------------------------------------

    def canon(self, obj: object) -> Optional[str]:
        """Canonical link-space name for an abstract object.

        Returns ``None`` for storage invisible outside its function
        (register-promoted locals).
        """
        u = self.unit
        if isinstance(obj, HeapObject):
            name = f"{u.filename}::{obj.name}"
            u.naming[name] = obj
            return name
        if not isinstance(obj, Symbol):
            return None
        if obj.storage is StorageClass.GLOBAL:
            if obj.name.startswith("__argslot"):
                return None  # call-sequence private arg area
            u.naming[obj.name] = obj
            return obj.name
        if obj.storage is StorageClass.STATIC or obj.address_taken or obj.ty.is_array:
            name = f"{u.filename}::{obj.name}@{obj.line}"
            u.naming[name] = obj
            return name
        return None

    # -- per-access classification ----------------------------------------

    def _record(
        self, acc: Access, summary: LocalSummary, param_index: dict[int, int]
    ) -> None:
        if acc.kind is AccessKind.CALL:
            return
        if acc.role in (AccessRole.STACK_ARG, AccessRole.ENTRY_PARAM):
            return
        ref = ref_for_access(acc)
        names: set[str] = set()
        params: set[int] = set()
        any_flag = False
        if ref is None or ref.base is None:
            any_flag = True
        elif ref.is_deref:
            base = ref.base
            raw = self.pts.points_to.get(base) or {TOP}
            for target in raw:
                if target is TOP or target == TOP:
                    idx = param_index.get(id(base))
                    if idx is not None:
                        params.add(idx)
                    else:
                        any_flag = True
                else:
                    n = self.canon(target)
                    if n is not None:
                        names.add(n)
            # A dereferenced parameter always names caller storage, no
            # matter what the unit-local solver resolved it to.
            idx = param_index.get(id(base))
            if idx is not None:
                params.add(idx)
        else:
            n = self.canon(ref.base)
            if n is not None:
                names.add(n)
        if acc.kind is AccessKind.LOAD:
            summary.ref_names |= names
            summary.param_ref |= params
            summary.ref_any = summary.ref_any or any_flag
        else:
            summary.mod_names |= names
            summary.param_mod |= params
            summary.mod_any = summary.mod_any or any_flag

    # -- call-argument bindings --------------------------------------------

    def _binding(self, arg: ast.Expr, param_index: dict[int, int]) -> Binding:
        ty = arg.ty
        pointer_like = ty is not None and (ty.is_pointer or ty.is_array)
        if isinstance(arg, ast.Name) and isinstance(arg.symbol, Symbol):
            sym = arg.symbol
            if sym.ty.is_array:
                n = self.canon(sym)
                return frozenset((n,)) if n else ANY
            if sym.ty.is_pointer:
                raw = self.pts.points_to.get(sym) or {TOP}
                names: set[str] = set()
                for target in raw:
                    if target is TOP or target == TOP:
                        idx = param_index.get(id(sym))
                        if idx is not None:
                            return ("param", idx)
                        return ANY
                    n = self.canon(target)
                    if n is None:
                        return ANY
                    names.add(n)
                return frozenset(names) if names else ANY
        if isinstance(arg, ast.Unary) and arg.op is ast.UnaryOp.ADDR:
            base: Optional[ast.Expr] = arg.operand
            while isinstance(base, (ast.Index, ast.FieldAccess)):
                base = base.base
            if isinstance(base, ast.Name) and isinstance(base.symbol, Symbol):
                n = self.canon(base.symbol)
                return frozenset((n,)) if n else ANY
            return ANY
        if (
            isinstance(arg, ast.Binary)
            and isinstance(arg.lhs, ast.Name)
            and isinstance(arg.lhs.symbol, Symbol)
            and arg.lhs.symbol.ty.is_array
        ):
            n = self.canon(arg.lhs.symbol)
            return frozenset((n,)) if n else ANY
        if pointer_like:
            return ANY
        return None

    # -- driver ------------------------------------------------------------

    def extract(self, fn: ast.FuncDef) -> LocalSummary:
        summary = LocalSummary(name=fn.name, unit=self.unit.filename)
        param_index = {
            id(p.symbol): i
            for i, p in enumerate(fn.params)
            if isinstance(p.symbol, Symbol)
        }
        assert fn.body is not None
        for stmt in ast.walk_stmts(fn.body):
            for acc in walk_stmt_accesses(stmt):
                self._record(acc, summary, param_index)
                if acc.role is AccessRole.CALLSITE and isinstance(acc.node, ast.Call):
                    call = acc.node
                    summary.calls.append(
                        CallSite(
                            callee=call.callee,
                            line=call.line,
                            bindings=tuple(
                                self._binding(a, param_index) for a in call.args
                            ),
                        )
                    )
        return summary


def analyze_unit(
    program: ast.Program, table: SymbolTable, filename: Optional[str] = None
) -> UnitAnalysis:
    """Run unit-local analyses and extract link-space local summaries."""
    filename = filename or program.filename
    with trace.span("linker.analyze_unit", file=filename):
        pts = analyze_points_to(program, table)
        refmod = RefModAnalysis(program, table, pts)
        refmod.run()
        unit = UnitAnalysis(
            filename=filename,
            program=program,
            table=table,
            pts=pts,
            refmod=refmod,
        )
        extractor = _SummaryExtractor(unit)
        for fn in program.functions:
            unit.locals[fn.name] = extractor.extract(fn)
    return unit
