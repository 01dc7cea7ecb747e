"""Flow-insensitive points-to (alias) analysis.

An Andersen-style inclusion analysis over the whole translation unit.
Every pointer-typed symbol gets a points-to set of *abstract objects*:
named variables, one heap object per ``malloc`` call site, and a TOP
marker for pointers whose value escapes the analysis (loads from
memory, externals, unanalyzable arithmetic).

One rule, :meth:`PointsToAnalysis._flow`, says what a pointer value
flowing into a node adds: a local declaration's initializer, an
assignment to a pointer name, an argument bound to a pointer parameter
and a ``return`` in a pointer-returning function (into that function's
return node) are each one flow.  Two rules keep it sound where no flow
is seen: a pointer whose address is taken holds TOP, since a store
through memory is not a flow, and a node no flow reaches (an
uninitialized pointer, a parameter only another unit binds) holds TOP;
both get TOP before a last propagation pass, so their copies inherit it.
Values that arrive from other translation units are otherwise unseen:
a parameter bound both here and in another unit, or a global pointer
both units assign, keeps only the targets seen here.

The paper's front-end uses exactly this kind of information to build the
HLI alias table: "all the pointer references that may refer to multiple
locations are determined [and] an alias relationship is created between
the equivalent access class for each pointer reference and the equivalent
access class to which the pointer reference may refer" (Section 3.1.2).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

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
    """Build and solve the inclusion-constraint system for one program.

    The nodes are the pointer-typed symbols plus one return node per
    defined function, keyed by the function's name; only the symbols
    reach :attr:`PointsToResult.points_to`.
    """

    def __init__(self, program: ast.Program, table: SymbolTable) -> None:
        self.program = program
        self.table = table
        #: node -> abstract objects (and TOP) it may hold
        self.pts: defaultdict[object, set] = defaultdict(set)
        #: subset edges src -> dst meaning pts(src) ⊆ pts(dst)
        self.edges: defaultdict[object, set] = defaultdict(set)
        self.addressable: set = set()
        self._heap_count = 0
        #: parameter symbols of each defined function, by name
        self._params = {fn.name: [p.symbol for p in fn.params] for fn in program.functions}

    # -- public API ---------------------------------------------------------

    def run(self) -> PointsToResult:
        stmts: dict[str, list[ast.Stmt]] = {}
        for fn in self.program.functions:
            assert fn.body is not None
            stmts[fn.name] = ast.walk_own_stmts(fn.body)
        self._collect_addressable(stmts)
        for fn in self.program.functions:
            returns_pointer = fn.ret is not None and fn.ret.is_pointer
            for stmt in stmts[fn.name]:
                if isinstance(stmt, ast.VarDecl) and stmt.init is not None:
                    self._flow(stmt.init, stmt.symbol)
                elif isinstance(stmt, ast.Return) and stmt.value is not None and returns_pointer:
                    self._flow(stmt.value, fn.name)
                for e in ast.stmt_exprs(stmt):
                    for x in ast.walk_exprs(e):
                        if isinstance(x, ast.Assign) and isinstance(x.target, ast.Name):
                            self._flow(x.value, x.target.symbol)
                        elif isinstance(x, ast.Call):
                            for param, arg in zip(self._params.get(x.callee, ()), x.args):
                                self._flow(arg, param)
        self._solve()
        # A pointer whose address is taken can be written through memory,
        # which is no flow, and a node no flow reaches holds what a caller
        # outside the unit or an uninitialized slot gave it: both hold TOP,
        # and the last pass hands it on to their copies.
        for node, s in self.pts.items():
            if not s or (isinstance(node, Symbol) and node.address_taken):
                s.add(TOP)
        self._solve()
        points_to = {n: s for n, s in self.pts.items() if isinstance(n, Symbol)}
        return PointsToResult(points_to=points_to, addressable=self.addressable)

    # -- universe -------------------------------------------------------------

    def _collect_addressable(self, stmts: dict[str, list[ast.Stmt]]) -> None:
        """Globals, then each function's in-memory parameters and locals
        (``stmts`` holds every function's statements, pre-order)."""
        for decl in self.program.globals:
            if isinstance(decl.symbol, Symbol):
                self.addressable.add(decl.symbol)
        for fn in self.program.functions:
            for sym in self._params[fn.name]:
                if isinstance(sym, Symbol) and sym.in_memory:
                    self.addressable.add(sym)
            for stmt in stmts[fn.name]:
                if isinstance(stmt, ast.VarDecl) and isinstance(stmt.symbol, Symbol):
                    sym = stmt.symbol
                    if sym.in_memory:
                        self.addressable.add(sym)

    # -- constraint generation ---------------------------------------------------

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

    def _flow(self, e: ast.Expr | None, node) -> None:
        """The value of ``e`` flows into ``node`` (a non-pointer symbol
        takes no part): ``&x``, an array name or ``malloc`` adds an object,
        a pointer name or a call of a defined function adds a subset edge,
        and anything else, such as a value loaded from memory, adds TOP."""
        if isinstance(node, Symbol) and not node.ty.is_pointer:
            return
        sym = e.symbol if isinstance(e, ast.Name) else None
        if isinstance(sym, Symbol) and isinstance(sym.ty, ArrayType):
            self.pts[node].add(sym)  # an array decays to its own address
        elif isinstance(sym, Symbol) and isinstance(sym.ty, PointerType):
            self.edges[sym].add(node)
        elif isinstance(e, ast.Unary) and e.op is ast.UnaryOp.ADDR:
            assert e.operand is not None
            self.pts[node].add(self._base_object_of(e.operand))
        elif isinstance(e, ast.Binary) and e.op in (ast.BinOp.ADD, ast.BinOp.SUB) and (
            _is_address(e.lhs) or _is_address(e.rhs)
        ):
            for side in (e.lhs, e.rhs):
                if _is_address(side):
                    self._flow(side, node)  # arithmetic keeps the base's targets
        elif isinstance(e, ast.Conditional):
            self._flow(e.then, node)
            self._flow(e.otherwise, node)
        elif isinstance(e, ast.Call) and e.callee == "malloc":
            self._heap_count += 1
            obj = HeapObject(self._heap_count, e.line)
            self.addressable.add(obj)
            self.pts[node].add(obj)
        elif isinstance(e, ast.Call) and e.callee in self._params:
            self.edges[e.callee].add(node)
        else:
            self.pts[node].add(TOP)

    # -- fixpoint ----------------------------------------------------------------

    def _solve(self) -> None:
        changed = True
        while changed:
            changed = False
            for src, dsts in self.edges.items():
                src_set = self.pts[src]
                for dst in dsts:
                    dst_set = self.pts[dst]
                    before = len(dst_set)
                    dst_set |= src_set
                    if len(dst_set) != before:
                        changed = True


def _is_address(e: ast.Expr | None) -> bool:
    """Is ``e`` a pointer or an array (which decays to one)?"""
    return e is not None and e.ty is not None and (e.ty.is_pointer or e.ty.is_array)


def analyze_points_to(program: ast.Program, table: SymbolTable) -> PointsToResult:
    """Run the whole-program points-to analysis."""
    return PointsToAnalysis(program, table).run()
