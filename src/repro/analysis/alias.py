"""Flow-insensitive points-to (alias) analysis.

An Andersen-style inclusion analysis over the whole translation unit.
Every pointer-typed symbol gets a points-to set of *abstract objects*:
named variables, one heap object per ``malloc`` call site, and a TOP
marker for pointers whose value escapes the analysis (externals,
unanalyzable arithmetic).

The paper's front-end uses exactly this kind of information to build the
HLI alias table: "all the pointer references that may refer to multiple
locations are determined [and] an alias relationship is created between
the equivalent access class for each pointer reference and the equivalent
access class to which the pointer reference may refer" (Section 3.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..frontend import ast_nodes as ast
from ..frontend.symbols import Symbol, SymbolTable
from ..frontend.typesys import ArrayType, PointerType


@dataclass(frozen=True)
class HeapObject:
    """Abstract heap object allocated at one malloc call site."""

    site_id: int
    line: int

    @property
    def name(self) -> str:
        return f"heap@{self.line}#{self.site_id}"


#: Abstract memory object: a named variable or a heap allocation.
MemObject = object  # Symbol | HeapObject

#: Marker object meaning "could point anywhere addressable", tested by
#: identity (``is TOP``).  A copy that crossed a pickle compares equal but
#: is not the same object, so code that may see one tests ``== TOP`` too.
TOP = "<top>"


@dataclass
class PointsToResult:
    """Solved points-to sets plus the universe of addressable objects."""

    points_to: dict[Symbol, set] = field(default_factory=dict)
    addressable: set = field(default_factory=set)

    def targets(self, ptr: Symbol) -> set:
        """Objects ``ptr`` may reference; TOP expands to the full universe."""
        pts = self.points_to.get(ptr, {TOP})
        if TOP in pts:
            return set(self.addressable) | (pts - {TOP})
        return set(pts)

    def may_alias_symbols(self, p: Symbol, q: Symbol) -> bool:
        """May two pointers reference a common object?"""
        return bool(self.targets(p) & self.targets(q))

    def may_point_to(self, ptr: Symbol, obj) -> bool:
        return obj in self.targets(ptr)


class PointsToAnalysis:
    """Build and solve the inclusion-constraint system for one program."""

    def __init__(self, program: ast.Program, table: SymbolTable) -> None:
        self.program = program
        self.table = table
        self.pts: dict[Symbol, set] = {}
        #: subset edges p -> q meaning pts(p) ⊆ pts(q)
        self.edges: dict[Symbol, set[Symbol]] = {}
        self.addressable: set = set()
        self._heap_count = 0
        #: parameter symbols per function name, for interprocedural flow
        self._params: dict[str, list[Symbol]] = {}
        #: pointer symbols returned by each function
        self._returns: dict[str, set[Symbol]] = {}
        #: call sites: (callee, arg exprs, receiver symbol or None)
        self._calls: list[tuple[str, list[ast.Expr], Optional[Symbol]]] = []

    # -- public API ---------------------------------------------------------

    def run(self) -> PointsToResult:
        stmts: dict[str, list[ast.Stmt]] = {}
        for fn in self.program.functions:
            assert fn.body is not None
            stmts[fn.name] = ast.walk_own_stmts(fn.body)
        self._collect_addressable(stmts)
        for fn in self.program.functions:
            self._params[fn.name] = [
                p.symbol for p in fn.params if isinstance(p.symbol, Symbol)
            ]
        for fn in self.program.functions:
            for stmt in stmts[fn.name]:
                for e in ast.stmt_exprs(stmt):
                    self._visit_expr(e, fn)
                if isinstance(stmt, ast.Return) and stmt.value is not None:
                    self._record_return(fn, stmt.value)
        self._apply_calls()
        self._solve()
        return PointsToResult(points_to=self.pts, addressable=self.addressable)

    # -- universe -------------------------------------------------------------

    def _collect_addressable(self, stmts: dict[str, list[ast.Stmt]]) -> None:
        """Globals, then each function's in-memory locals (``stmts`` holds
        every function's statements, pre-order)."""
        for decl in self.program.globals:
            if isinstance(decl.symbol, Symbol):
                self.addressable.add(decl.symbol)
        for fn in self.program.functions:
            for stmt in stmts[fn.name]:
                if isinstance(stmt, ast.VarDecl) and isinstance(stmt.symbol, Symbol):
                    sym = stmt.symbol
                    if sym.in_memory:
                        self.addressable.add(sym)

    # -- constraint generation ---------------------------------------------------

    def _pts_of(self, sym: Symbol) -> set:
        s = self.pts.get(sym)
        if s is None:
            s = set()
            self.pts[sym] = s
        return s

    def _add_edge(self, src: Symbol, dst: Symbol) -> None:
        self.edges.setdefault(src, set()).add(dst)

    def _base_object_of(self, e: ast.Expr):
        """Abstract object whose address expression ``e`` denotes, or TOP."""
        if isinstance(e, ast.Name) and isinstance(e.symbol, Symbol):
            return e.symbol
        if isinstance(e, ast.Index):
            return self._base_object_of(e.base) if e.base is not None else TOP
        if isinstance(e, ast.FieldAccess):
            if e.arrow:
                # &p->f: object is whatever p points to; approximate TOP to
                # stay sound without field-sensitive objects.
                return TOP
            return self._base_object_of(e.base) if e.base is not None else TOP
        return TOP

    def _pointer_sources(self, e: ast.Expr, fn: ast.FuncDef) -> set:
        """Abstract values a pointer-typed expression may evaluate to.

        Returns a set of: Symbol objects (address of that variable),
        HeapObject, TOP, or ``("copy", sym)`` marking a copy of pointer
        variable ``sym`` (resolved via subset edges).
        """
        if isinstance(e, ast.Name) and isinstance(e.symbol, Symbol):
            sym = e.symbol
            if isinstance(sym.ty, ArrayType):
                return {sym}  # array decays to its own address
            if isinstance(sym.ty, PointerType):
                return {("copy", sym)}
            return set()
        if isinstance(e, ast.Unary) and e.op is ast.UnaryOp.ADDR:
            assert e.operand is not None
            return {self._base_object_of(e.operand)}
        if isinstance(e, ast.Binary) and e.op in (ast.BinOp.ADD, ast.BinOp.SUB):
            out: set = set()
            for side in (e.lhs, e.rhs):
                if side is not None and side.ty is not None and (
                    side.ty.is_pointer or side.ty.is_array
                ):
                    out |= self._pointer_sources(side, fn)
            return out or {TOP}
        if isinstance(e, ast.Call):
            if e.callee == "malloc":
                self._heap_count += 1
                obj = HeapObject(self._heap_count, e.line)
                self.addressable.add(obj)
                return {obj}
            fsym = self.table.lookup_function(e.callee)
            if fsym is not None and not fsym.external:
                return {("ret", e.callee)}
            return {TOP}
        if isinstance(e, ast.Conditional):
            out = set()
            for side in (e.then, e.otherwise):
                if side is not None:
                    out |= self._pointer_sources(side, fn)
            return out
        if isinstance(e, (ast.Index, ast.FieldAccess, ast.Unary)):
            # Pointer loaded from memory: sound choice is TOP.
            return {TOP}
        return {TOP}

    def _assign_pointer(self, target_sym: Symbol, value: ast.Expr, fn: ast.FuncDef) -> None:
        for src in self._pointer_sources(value, fn):
            if isinstance(src, tuple) and src[0] == "copy":
                self._add_edge(src[1], target_sym)
            elif isinstance(src, tuple) and src[0] == "ret":
                self._returns.setdefault(src[1], set())
                self._calls.append((src[1], [], target_sym))
            else:
                self._pts_of(target_sym).add(src)

    def _visit_expr(self, e: ast.Expr, fn: ast.FuncDef) -> None:
        for x in ast.walk_exprs(e):
            if isinstance(x, ast.Assign) and x.target is not None and x.value is not None:
                tty = x.target.ty
                if (
                    isinstance(x.target, ast.Name)
                    and isinstance(x.target.symbol, Symbol)
                    and tty is not None
                    and tty.is_pointer
                ):
                    self._assign_pointer(x.target.symbol, x.value, fn)
                elif tty is not None and tty.is_pointer:
                    # Store of a pointer through memory: everything the
                    # value may be becomes reachable from TOP-ish objects;
                    # keep soundness by widening the stored-to object's
                    # content via a synthetic TOP edge: approximate by
                    # making the value's copies point TOP-ward is overkill;
                    # we instead mark nothing (reads through memory already
                    # return TOP).
                    pass
            if isinstance(x, ast.Call):
                fsym = self.table.lookup_function(x.callee)
                if fsym is not None and not fsym.external:
                    self._calls.append((x.callee, list(x.args), None))

    def _record_return(self, fn: ast.FuncDef, value: ast.Expr) -> None:
        if fn.ret is not None and fn.ret.is_pointer:
            for src in self._pointer_sources(value, fn):
                if isinstance(src, tuple) and src[0] == "copy":
                    self._returns.setdefault(fn.name, set()).add(src[1])
                elif not isinstance(src, tuple):
                    # Constant-address return: store via a synthetic symbol.
                    self._returns.setdefault(fn.name, set())
                    # Model by adding to every receiver at _apply_calls time;
                    # stash as a pseudo-entry using None key handled there.
                    self._returns[fn.name].add(("obj", src))  # type: ignore[arg-type]

    # -- interprocedural wiring ---------------------------------------------------

    def _apply_calls(self) -> None:
        for callee, args, receiver in self._calls:
            params = self._params.get(callee, [])
            for idx, arg in enumerate(args):
                if idx >= len(params):
                    break
                param = params[idx]
                if param.ty.is_pointer:
                    fn_dummy = None  # _pointer_sources does not use fn
                    for src in self._pointer_sources(arg, fn_dummy):  # type: ignore[arg-type]
                        if isinstance(src, tuple) and src[0] == "copy":
                            self._add_edge(src[1], param)
                        elif isinstance(src, tuple) and src[0] == "ret":
                            pass  # nested call result: conservative skip -> TOP
                        else:
                            self._pts_of(param).add(src)
            if receiver is not None:
                for entry in self._returns.get(callee, set()):
                    if isinstance(entry, tuple) and entry[0] == "obj":
                        self._pts_of(receiver).add(entry[1])
                    elif isinstance(entry, Symbol):
                        self._add_edge(entry, receiver)

    # -- fixpoint ----------------------------------------------------------------

    def _solve(self) -> None:
        changed = True
        while changed:
            changed = False
            for src, dsts in self.edges.items():
                src_set = self._pts_of(src)
                for dst in dsts:
                    dst_set = self._pts_of(dst)
                    before = len(dst_set)
                    dst_set |= src_set
                    if len(dst_set) != before:
                        changed = True
        # Pointers with no facts at all (uninitialized, external input)
        # conservatively get TOP.
        for sym, s in self.pts.items():
            if not s:
                s.add(TOP)


def analyze_points_to(program: ast.Program, table: SymbolTable) -> PointsToResult:
    """Run the whole-program points-to analysis."""
    return PointsToAnalysis(program, table).run()
