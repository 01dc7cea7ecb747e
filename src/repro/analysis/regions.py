"""Hierarchical region structure (paper Section 2.2).

A *region* is either a whole program unit (function) or a loop; loops nest
to form a region tree.  All HLI tables are scoped to regions: equivalent
access classes, alias sets, loop-carried dependences, and call REF/MOD
sets are each expressed "with respect to" a region.

This module builds the region tree for a function and recognizes
*canonical induction loops* — ``for (i = L; i < U; i += S)`` with integer
``S`` — whose bounds feed the dependence tests.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..frontend import ast_nodes as ast
from ..frontend.symbols import Symbol
from .subscripts import Affine, affine_of


class RegionKind(enum.Enum):
    UNIT = "unit"
    LOOP = "loop"


@dataclass
class LoopInfo:
    """Canonical description of an induction loop, when recognizable.

    ``lower``/``upper`` are affine bounds; ``upper_inclusive`` reflects the
    comparison operator (``<=`` vs ``<``).  ``trip_count`` is computed when
    both bounds are compile-time constants.  Any field may be ``None`` when
    the pattern is not recognized — tests must then be conservative.
    """

    var: Optional[Symbol] = None
    lower: Optional[Affine] = None
    upper: Optional[Affine] = None
    upper_inclusive: bool = False
    step: Optional[int] = None

    @property
    def is_canonical(self) -> bool:
        return self.var is not None and self.step is not None

    def trip_count(self) -> Optional[int]:
        """Constant trip count if bounds and step are fully known, else None."""
        if (
            self.var is None
            or self.step is None
            or self.step == 0
            or self.lower is None
            or self.upper is None
            or not self.lower.is_constant
            or not self.upper.is_constant
        ):
            return None
        lo, hi = self.lower.const, self.upper.const
        if self.upper_inclusive:
            hi += 1 if self.step > 0 else -1
        span = hi - lo
        if self.step > 0:
            return max(0, (span + self.step - 1) // self.step)
        return max(0, (lo - hi + (-self.step) - 1) // (-self.step))

    def iteration_range(self) -> Optional[range]:
        """Concrete iteration values of the induction variable, if constant."""
        n = self.trip_count()
        if n is None or self.lower is None or self.step is None:
            return None
        lo = self.lower.const
        return range(lo, lo + n * self.step, self.step) if n else range(lo, lo)


@dataclass
class Region:
    """One node in the region tree."""

    region_id: int
    kind: RegionKind
    line: int
    parent: Optional["Region"] = None
    children: list["Region"] = field(default_factory=list)
    loop: Optional[LoopInfo] = None
    #: The loop statement (For/While/DoWhile) for LOOP regions.
    stmt: Optional[ast.Stmt] = None
    #: Function name for UNIT regions.
    unit_name: str = ""
    #: Scalar symbols assigned anywhere inside this region (incl. children);
    #: used for loop-invariance checks in dependence testing.
    modified_scalars: set[Symbol] = field(default_factory=set)

    def __hash__(self) -> int:
        return self.region_id

    def ancestors(self) -> Iterator["Region"]:
        """Yield self, parent, grandparent, ... up to the unit region."""
        r: Optional[Region] = self
        while r is not None:
            yield r
            r = r.parent

    def depth(self) -> int:
        return sum(1 for _ in self.ancestors()) - 1

    def walk(self) -> Iterator["Region"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for c in self.children:
            yield from c.walk()

    def enclosing_loops(self) -> list["Region"]:
        """Loop regions enclosing (and including) this one, outermost first."""
        loops = [r for r in self.ancestors() if r.kind is RegionKind.LOOP]
        loops.reverse()
        return loops

    def is_ancestor_of(self, other: "Region") -> bool:
        return any(r is self for r in other.ancestors())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.unit_name if self.kind is RegionKind.UNIT else f"loop@{self.line}"
        return f"Region({self.region_id}, {tag})"


def common_region(a: Region, b: Region) -> Region:
    """Innermost region enclosing both ``a`` and ``b``."""
    seen = {id(r) for r in a.ancestors()}
    for r in b.ancestors():
        if id(r) in seen:
            return r
    raise ValueError("regions are not in the same tree")


# ---------------------------------------------------------------------------
# Loop recognition
# ---------------------------------------------------------------------------


def recognize_loop(stmt: ast.Stmt) -> LoopInfo:
    """Extract canonical induction information from a loop statement.

    Only ``For`` loops of the shape ``for (i = L; i </<= U; i++/i+=c/i=i+c)``
    are recognized; everything else yields an empty (non-canonical)
    :class:`LoopInfo`.
    """
    if not isinstance(stmt, ast.For):
        return LoopInfo()
    var = _induction_var_of_init(stmt.init)
    if var is None:
        return LoopInfo()
    lower = _lower_bound_of_init(stmt.init)
    step = _step_of(stmt.step, var)
    upper, inclusive = _upper_bound_of_cond(stmt.cond, var, step)
    return LoopInfo(var=var, lower=lower, upper=upper, upper_inclusive=inclusive, step=step)


def _induction_var_of_init(init: ast.Stmt | None) -> Optional[Symbol]:
    if isinstance(init, ast.ExprStmt) and isinstance(init.expr, ast.Assign):
        tgt = init.expr.target
        if (
            init.expr.op is ast.AssignOp.ASSIGN
            and isinstance(tgt, ast.Name)
            and isinstance(tgt.symbol, Symbol)
            and tgt.symbol.ty.is_integer
        ):
            return tgt.symbol
    if isinstance(init, ast.VarDecl) and isinstance(init.symbol, Symbol):
        if init.symbol.ty.is_integer and init.init is not None:
            return init.symbol
    return None


def _lower_bound_of_init(init: ast.Stmt | None) -> Optional[Affine]:
    if isinstance(init, ast.ExprStmt) and isinstance(init.expr, ast.Assign):
        return affine_of(init.expr.value) if init.expr.value else None
    if isinstance(init, ast.VarDecl) and init.init is not None:
        return affine_of(init.init)
    return None


def _step_of(step: ast.Expr | None, var: Symbol) -> Optional[int]:
    if step is None:
        return None
    if isinstance(step, ast.IncDec):
        t = step.target
        if isinstance(t, ast.Name) and t.symbol is var:
            return 1 if step.increment else -1
        return None
    if isinstance(step, ast.Assign):
        t = step.target
        if not (isinstance(t, ast.Name) and t.symbol is var):
            return None
        if step.op is ast.AssignOp.ADD:
            inc = affine_of(step.value) if step.value else None
            if inc is not None and inc.is_constant:
                return inc.const
            return None
        if step.op is ast.AssignOp.SUB:
            inc = affine_of(step.value) if step.value else None
            if inc is not None and inc.is_constant:
                return -inc.const
            return None
        if step.op is ast.AssignOp.ASSIGN and step.value is not None:
            form = affine_of(step.value)
            if form is not None and form.coeff(var) == 1:
                rest = form.drop(var)
                if rest.is_constant:
                    return rest.const
            return None
    return None


def _upper_bound_of_cond(
    cond: ast.Expr | None, var: Symbol, step: Optional[int]
) -> tuple[Optional[Affine], bool]:
    if not isinstance(cond, ast.Binary) or cond.lhs is None or cond.rhs is None:
        return None, False
    lhs_is_var = isinstance(cond.lhs, ast.Name) and cond.lhs.symbol is var
    rhs_is_var = isinstance(cond.rhs, ast.Name) and cond.rhs.symbol is var
    if lhs_is_var and cond.op in (ast.BinOp.LT, ast.BinOp.LE):
        bound = affine_of(cond.rhs)
        return bound, cond.op is ast.BinOp.LE
    if lhs_is_var and cond.op in (ast.BinOp.GT, ast.BinOp.GE) and step is not None and step < 0:
        bound = affine_of(cond.rhs)
        return bound, cond.op is ast.BinOp.GE
    if rhs_is_var and cond.op in (ast.BinOp.GT, ast.BinOp.GE):
        # U > i  <=>  i < U
        bound = affine_of(cond.lhs)
        return bound, cond.op is ast.BinOp.GE
    return None, False


# ---------------------------------------------------------------------------
# Region tree construction
# ---------------------------------------------------------------------------


class RegionTreeBuilder:
    """Build the region tree of one function (paper Figure 2 structure).

    The same traversal fills every region's ``modified_scalars``: each
    statement's expressions are walked once, and the scalars they assign
    are kept in :attr:`assigned` for ITEMGEN's epoch counters, so
    ITEMGEN walks no expression again.
    """

    def __init__(self, id_counter: Optional[itertools.count] = None) -> None:
        self._ids = id_counter if id_counter is not None else itertools.count(1)
        #: Map loop statement id() -> region, for later lookups.
        self.loop_regions: dict[int, Region] = {}
        #: Map each statement id() -> its immediately enclosing region.
        self.stmt_region: dict[int, Region] = {}
        #: uids of the scalars each ITEMGEN group assigns, keyed by the
        #: group's id(): a loop or ``if`` condition or a ``for`` step
        #: expression, a ``for`` init statement, or any other statement
        #: without sub-statements.
        self.assigned: dict[int, frozenset[int]] = {}

    def build(self, fn: ast.FuncDef) -> Region:
        root = Region(
            region_id=next(self._ids),
            kind=RegionKind.UNIT,
            line=fn.line,
            unit_name=fn.name,
        )
        assert fn.body is not None
        for s in fn.body.stmts:
            self._visit(s, root)
        _propagate_modified(root)
        return root

    def _visit(self, stmt: ast.Stmt, region: Region) -> None:
        self.stmt_region[id(stmt)] = region
        if isinstance(stmt, (ast.For, ast.While, ast.DoWhile)):
            child = Region(
                region_id=next(self._ids),
                kind=RegionKind.LOOP,
                line=stmt.line,
                parent=region,
                loop=recognize_loop(stmt),
                stmt=stmt,
            )
            region.children.append(child)
            self.loop_regions[id(stmt)] = child
            stmt.loop_id = child.region_id
            # The loop's init statement executes in the *parent* region; the
            # cond/step execute per-iteration (inside the loop region).
            if isinstance(stmt, ast.For) and stmt.init is not None:
                self.stmt_region[id(stmt.init)] = region
                for sub in ast.child_stmts(stmt.init):
                    self.stmt_region[id(sub)] = region
                self._record(stmt.init, region)
            for e in ast.stmt_exprs(stmt):
                self._record(e, child)
            body = stmt.body
            if body is not None:
                self._visit_body(body, child)
            return
        if isinstance(stmt, ast.If):
            if stmt.cond is not None:
                self._record(stmt.cond, region)
        elif not isinstance(stmt, (ast.Block, ast.DeclGroup)):
            self._record(stmt, region)
        for sub in ast.child_stmts(stmt):
            self._visit(sub, region)

    def _visit_body(self, body: ast.Stmt, region: Region) -> None:
        self.stmt_region[id(body)] = region
        if isinstance(body, ast.Block):
            for s in body.stmts:
                self._visit(s, region)
        else:
            self._visit(body, region)

    def _record(self, group: ast.Stmt | ast.Expr, region: Region) -> None:
        """Walk one ITEMGEN group's expressions once; note what it assigns."""
        syms = _assigned_symbols(group)
        if syms:
            region.modified_scalars.update(syms)
            self.assigned[id(group)] = frozenset(sym.uid for sym in syms)
        else:
            self.assigned[id(group)] = _NOTHING


_NOTHING: frozenset[int] = frozenset()


def _assigned_symbols(group: ast.Stmt | ast.Expr) -> list[Symbol]:
    """Scalar symbols an expression, or a statement's own expressions and
    declarations, assign (a declaration with an initializer writes its
    symbol each time the enclosing region iterates)."""
    out: list[Symbol] = []
    if isinstance(group, ast.Expr):
        exprs = [group]
    else:
        decls = group.decls if isinstance(group, ast.DeclGroup) else [group]
        for d in decls:
            if isinstance(d, ast.VarDecl) and d.init is not None and isinstance(d.symbol, Symbol):
                out.append(d.symbol)
        exprs = ast.stmt_exprs(group)
    for e in exprs:
        for x in ast.walk_exprs(e):
            if isinstance(x, (ast.Assign, ast.IncDec)):
                target = x.target
                if isinstance(target, ast.Name) and isinstance(target.symbol, Symbol):
                    out.append(target.symbol)
    return out


def _propagate_modified(region: Region) -> None:
    """Fold every region's ``modified_scalars`` into its ancestors'."""
    for child in region.children:
        _propagate_modified(child)
        region.modified_scalars |= child.modified_scalars
