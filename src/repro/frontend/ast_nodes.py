"""MiniC abstract syntax tree.

Every node carries the 1-based source ``line`` it originates from: the HLI
line table (paper Section 2.1) is keyed on source lines, so the line
numbers recorded here are the contract between the front-end items and the
back-end RTL memory references.

Nodes also carry a mutable ``ty`` slot filled in by semantic analysis, and
expression nodes may receive an ``item`` annotation from the ITEMGEN phase
(see :mod:`repro.analysis.items`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .typesys import Type


class Node:
    """Base class for all AST nodes."""

    line: int


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expressions; ``ty`` is set by semantic analysis."""

    line: int
    ty: Optional[Type] = field(default=None, init=False, compare=False)
    # ITEMGEN annotation: the HLI item id generated for this node's memory
    # access, if any (paper Section 3.1.1).
    item_id: Optional[int] = field(default=None, init=False, compare=False)


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class Name(Expr):
    """A variable reference; resolved to a Symbol by semantic analysis."""

    ident: str = ""
    symbol: object = field(default=None, compare=False)


class UnaryOp(enum.Enum):
    NEG = "-"
    NOT = "!"
    BITNOT = "~"
    DEREF = "*"
    ADDR = "&"


@dataclass
class Unary(Expr):
    op: UnaryOp = UnaryOp.NEG
    operand: Expr | None = None


class BinOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="
    AND = "&&"
    OR = "||"
    BITAND = "&"
    BITOR = "|"
    BITXOR = "^"
    SHL = "<<"
    SHR = ">>"


#: Binary operators whose result is always int (comparisons / logical).
BOOLEAN_OPS = {
    BinOp.LT,
    BinOp.GT,
    BinOp.LE,
    BinOp.GE,
    BinOp.EQ,
    BinOp.NE,
    BinOp.AND,
    BinOp.OR,
}


@dataclass
class Binary(Expr):
    op: BinOp = BinOp.ADD
    lhs: Expr | None = None
    rhs: Expr | None = None


@dataclass
class Conditional(Expr):
    """Ternary ``cond ? then : else``."""

    cond: Expr | None = None
    then: Expr | None = None
    otherwise: Expr | None = None


@dataclass
class Index(Expr):
    """Single-dimension array subscript ``base[index]``.

    Multi-dimensional accesses nest: ``a[i][j]`` parses to
    ``Index(Index(a, i), j)``.
    """

    base: Expr | None = None
    index: Expr | None = None


@dataclass
class FieldAccess(Expr):
    """``base.field`` or ``base->field`` (``arrow=True``)."""

    base: Expr | None = None
    fieldname: str = ""
    arrow: bool = False


@dataclass
class Call(Expr):
    callee: str = ""
    args: list[Expr] = field(default_factory=list)
    symbol: object = field(default=None, compare=False)


class AssignOp(enum.Enum):
    ASSIGN = "="
    ADD = "+="
    SUB = "-="
    MUL = "*="
    DIV = "/="


@dataclass
class Assign(Expr):
    """Assignment expression (used at statement level in MiniC idiom)."""

    op: AssignOp = AssignOp.ASSIGN
    target: Expr | None = None
    value: Expr | None = None


@dataclass
class IncDec(Expr):
    """``x++`` / ``x--`` (post) or ``++x`` / ``--x`` (pre)."""

    target: Expr | None = None
    increment: bool = True
    prefix: bool = False


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    line: int


@dataclass
class VarDecl(Stmt):
    """A single variable declaration, possibly with an initializer."""

    name: str = ""
    ty: Type | None = None
    init: Expr | None = None
    is_static: bool = False
    is_extern: bool = False
    symbol: object = field(default=None, compare=False)


@dataclass
class DeclGroup(Stmt):
    """Several declarations from one ``int i, j;`` line — no new scope."""

    decls: list[VarDecl] = field(default_factory=list)


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class ExprStmt(Stmt):
    expr: Expr | None = None


@dataclass
class If(Stmt):
    cond: Expr | None = None
    then: Stmt | None = None
    otherwise: Stmt | None = None


@dataclass
class While(Stmt):
    cond: Expr | None = None
    body: Stmt | None = None
    # Loop id assigned by region analysis (paper Section 2.2).
    loop_id: Optional[int] = field(default=None, compare=False)


@dataclass
class DoWhile(Stmt):
    body: Stmt | None = None
    cond: Expr | None = None
    loop_id: Optional[int] = field(default=None, compare=False)


@dataclass
class For(Stmt):
    """C-style for loop.

    ``init`` may be an Assign/VarDecl-bearing statement or ``None``; the
    front-end dependence analysis recognizes the *canonical induction*
    pattern ``for (i = L; i < U; i += S)`` (see
    :mod:`repro.analysis.subscripts`).
    """

    init: Stmt | None = None
    cond: Expr | None = None
    step: Expr | None = None
    body: Stmt | None = None
    loop_id: Optional[int] = field(default=None, compare=False)


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Param(Node):
    line: int
    name: str = ""
    ty: Type | None = None
    symbol: object = field(default=None, compare=False)


@dataclass
class FuncDef(Node):
    line: int
    name: str = ""
    ret: Type | None = None
    params: list[Param] = field(default_factory=list)
    body: Block | None = None
    is_static: bool = False


@dataclass
class FuncProto(Node):
    """A function declaration without a body (``extern`` or plain prototype).

    Prototypes only contribute a signature to the symbol table; the
    definition may live in another translation unit and is resolved by
    the whole-program linker (:mod:`repro.linker`).
    """

    line: int
    name: str = ""
    ret: Type | None = None
    params: list[Param] = field(default_factory=list)
    is_extern: bool = False


@dataclass
class StructDef(Node):
    line: int
    name: str = ""
    fields: list[tuple[str, Type]] = field(default_factory=list)


@dataclass
class Program(Node):
    """A complete translation unit."""

    line: int
    filename: str = "<input>"
    globals: list[VarDecl] = field(default_factory=list)
    structs: list[StructDef] = field(default_factory=list)
    functions: list[FuncDef] = field(default_factory=list)
    protos: list[FuncProto] = field(default_factory=list)

    def function(self, name: str) -> FuncDef:
        """Look up a function definition by name (KeyError if absent)."""
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------


#: Child fields of each expression class, in evaluation order (a
#: ``Call``'s children are its ``args``).
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    IntLit: (),
    FloatLit: (),
    StringLit: (),
    Name: (),
    Unary: ("operand",),
    Binary: ("lhs", "rhs"),
    Conditional: ("cond", "then", "otherwise"),
    Index: ("base", "index"),
    FieldAccess: ("base",),
    Assign: ("value", "target"),
    IncDec: ("target",),
}
#: The same fields backwards, as a walk pushes them onto its stack.
_CHILD_FIELDS_REVERSED = {cls: fields[::-1] for cls, fields in _CHILD_FIELDS.items()}


def child_exprs(e: Expr) -> list[Expr]:
    """Immediate sub-expressions of ``e`` in evaluation order."""
    if isinstance(e, Call):
        return list(e.args)
    children = (getattr(e, name) for name in _CHILD_FIELDS.get(type(e), ()))
    return [c for c in children if c is not None]


def walk_exprs(e: Expr) -> list[Expr]:
    """``e`` and all nested sub-expressions, pre-order, in one iterative walk."""
    out: list[Expr] = []
    stack = [e]
    pop, push, emit = stack.pop, stack.append, out.append
    fields_of = _CHILD_FIELDS_REVERSED.get
    while stack:
        x = pop()
        emit(x)
        fields = fields_of(type(x))
        if fields is None:  # a Call
            stack.extend(reversed(child_exprs(x)))
            continue
        for name in fields:
            child = getattr(x, name)
            if child is not None:
                push(child)
    return out


def stmt_exprs(s: Stmt) -> list[Expr]:
    """Immediate expressions attached to statement ``s`` (not recursive into sub-statements)."""
    if isinstance(s, VarDecl):
        return [s.init] if s.init else []
    if isinstance(s, DeclGroup):
        return [d.init for d in s.decls if d.init]
    if isinstance(s, ExprStmt):
        return [s.expr] if s.expr else []
    if isinstance(s, If):
        return [s.cond] if s.cond else []
    if isinstance(s, (While, DoWhile)):
        return [s.cond] if s.cond else []
    if isinstance(s, For):
        return [x for x in (s.cond, s.step) if x]
    if isinstance(s, Return):
        return [s.value] if s.value else []
    return []


def child_stmts(s: Stmt) -> list[Stmt]:
    """Immediate sub-statements of ``s``."""
    if isinstance(s, Block):
        return list(s.stmts)
    if isinstance(s, DeclGroup):
        return list(s.decls)
    if isinstance(s, If):
        return [x for x in (s.then, s.otherwise) if x]
    if isinstance(s, While):
        return [s.body] if s.body else []
    if isinstance(s, DoWhile):
        return [s.body] if s.body else []
    if isinstance(s, For):
        return [x for x in (s.init, s.body) if x]
    return []


def walk_stmts(s: Stmt) -> list[Stmt]:
    """``s`` and all nested statements, pre-order, in one iterative walk."""
    out: list[Stmt] = []
    stack = [s]
    while stack:
        x = stack.pop()
        out.append(x)
        stack.extend(reversed(child_stmts(x)))
    return out


def walk_own_stmts(s: Stmt) -> list[Stmt]:
    """:func:`walk_stmts` without ``DeclGroup`` nodes, whose declarations
    it yields on their own: the :func:`stmt_exprs` of the statements it
    returns cover every expression under ``s`` exactly once."""
    return [x for x in walk_stmts(s) if not isinstance(x, DeclGroup)]
