"""Per-unit analysis artifacts consumed by the whole-program linker.

:func:`analyze_unit` runs Andersen points-to over one unit and extracts,
per function, a :class:`LocalSummary` from REF/MOD's access walk
(:func:`~repro.analysis.items.function_accesses`, each access once)
without running REF/MOD's fixpoint.  Summaries live in the linker's
*name space*, spelled by :func:`~repro.analysis.refmod.link_name`:

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

from ..analysis.alias import TOP, PointsToResult, analyze_points_to
from ..analysis.items import Access, AccessKind, AccessRole, function_accesses, ref_base
from ..analysis.refmod import link_name
from ..frontend import ast_nodes as ast
from ..frontend.symbols import Symbol, SymbolTable
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
    locals: dict[str, LocalSummary] = field(default_factory=dict)

    def defined_functions(self) -> list[str]:
        return [fn.name for fn in self.program.functions]


class _SummaryExtractor:
    """Extract :class:`LocalSummary` values for every function of a unit."""

    def __init__(self, unit: UnitAnalysis) -> None:
        self.filename = unit.filename
        self.pts = unit.pts

    # -- per-access classification ----------------------------------------

    def _record(
        self, acc: Access, summary: LocalSummary, param_index: dict[int, int]
    ) -> None:
        if acc.kind is AccessKind.CALL:
            return
        if acc.role in (AccessRole.STACK_ARG, AccessRole.ENTRY_PARAM):
            return
        base, is_deref = ref_base(acc.node)
        names: set[str] = set()
        params: set[int] = set()
        any_flag = False
        if base is None:
            any_flag = True
        elif is_deref:
            raw = self.pts.points_to.get(base) or {TOP}
            for target in raw:
                if target is TOP or target == TOP:
                    idx = param_index.get(id(base))
                    if idx is not None:
                        params.add(idx)
                    else:
                        any_flag = True
                else:
                    n = link_name(target, self.filename)
                    if n is not None:
                        names.add(n)
            # A dereferenced parameter always names caller storage, no
            # matter what the unit-local solver resolved it to.
            idx = param_index.get(id(base))
            if idx is not None:
                params.add(idx)
        else:
            n = link_name(base, self.filename)
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
                n = link_name(sym, self.filename)
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
                    n = link_name(target, self.filename)
                    if n is None:
                        return ANY
                    names.add(n)
                return frozenset(names) if names else ANY
        if isinstance(arg, ast.Unary) and arg.op is ast.UnaryOp.ADDR:
            base: Optional[ast.Expr] = arg.operand
            while isinstance(base, (ast.Index, ast.FieldAccess)):
                base = base.base
            if isinstance(base, ast.Name) and isinstance(base.symbol, Symbol):
                n = link_name(base.symbol, self.filename)
                return frozenset((n,)) if n else ANY
            return ANY
        if (
            isinstance(arg, ast.Binary)
            and isinstance(arg.lhs, ast.Name)
            and isinstance(arg.lhs.symbol, Symbol)
            and arg.lhs.symbol.ty.is_array
        ):
            n = link_name(arg.lhs.symbol, self.filename)
            return frozenset((n,)) if n else ANY
        if pointer_like:
            return ANY
        return None

    # -- driver ------------------------------------------------------------

    def extract(self, fn: ast.FuncDef) -> LocalSummary:
        summary = LocalSummary(name=fn.name, unit=self.filename)
        param_index = {
            id(p.symbol): i
            for i, p in enumerate(fn.params)
            if isinstance(p.symbol, Symbol)
        }
        for acc in function_accesses(fn):
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
    """Run points-to and extract link-space local summaries."""
    filename = filename or program.filename
    with trace.span("linker.analyze_unit", file=filename):
        pts = analyze_points_to(program, table)
        unit = UnitAnalysis(filename=filename, program=program, table=table, pts=pts)
        extractor = _SummaryExtractor(unit)
        for fn in program.functions:
            unit.locals[fn.name] = extractor.extract(fn)
    return unit
