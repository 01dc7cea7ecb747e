"""Memory access item generation — the ITEMGEN phase (paper Section 3.1.1).

ITEMGEN walks the typed AST in *canonical evaluation order* and emits one
:class:`MemoryItem` per memory access the back-end will generate, assigning
each a unique ID within the program unit.  The enumeration rules here are
the reproduction's version of "the front-end must follow GCC's RTL
generation rules": :mod:`repro.backend.lowering` emits its RTL memory
references in exactly the same per-line order, which is what makes the
order-based line-table mapping in :mod:`repro.backend.mapping` correct.
Tests cross-check the contract on every workload program.

What generates an item (mirroring the paper):

* loads/stores of *memory-resident* variables: globals, statics, arrays,
  struct variables, address-taken locals, pointer dereferences;
* function calls (one ``CALL`` item per call site);
* stack-passed outgoing arguments (beyond the 4 argument registers) and
  stack-resident incoming parameters.

What does **not** generate an item: accesses to register-promoted local
scalars and temporaries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..frontend import ast_nodes as ast
from ..frontend.symbols import StorageClass, Symbol
from ..frontend.typesys import INT, PointerType, StructType
from .subscripts import Affine, affine_of

#: Number of argument-passing registers in the modelled MIPS o32-like ABI.
NUM_ARG_REGS = 4


class AccessKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    CALL = "call"


class AccessRole(enum.Enum):
    """Why the access exists (paper distinguishes variable accesses from
    ABI-induced parameter/return traffic)."""

    VALUE = "value"  # ordinary variable access
    STACK_ARG = "stack_arg"  # outgoing argument stored to the arg area
    ENTRY_PARAM = "entry_param"  # incoming stack parameter read at entry
    CALLSITE = "callsite"  # the call itself


# Synthetic symbols for the outgoing-argument stack area.  The area is
# reused by every call in a unit, exactly like $sp+16+4k slots on MIPS.
_ARG_SLOT_SYMBOLS: dict[int, Symbol] = {}


def arg_slot_symbol(index: int) -> Symbol:
    """Synthetic memory symbol for outgoing stack-arg slot ``index`` (0-based)."""
    sym = _ARG_SLOT_SYMBOLS.get(index)
    if sym is None:
        sym = Symbol(name=f"__argslot{index}", ty=INT, storage=StorageClass.GLOBAL)
        _ARG_SLOT_SYMBOLS[index] = sym
    return sym


@dataclass(frozen=True)
class SymbolicRef:
    """Front-end description of one memory reference.

    ``base`` is the declared symbol the access goes through (the pointed-to
    object is *not* resolved here — that is the alias analysis' job when
    ``is_deref`` is set).  ``subscripts`` holds one affine form per array
    dimension, ``None`` marking a non-affine subscript.
    """

    base: Optional[Symbol]
    is_deref: bool = False
    subscripts: tuple[Optional[Affine], ...] = ()
    field_name: Optional[str] = None
    #: Extra affine byte/element offset applied to a pointer deref
    #: (``*(p + k)`` carries ``k`` here).
    deref_offset: Optional[Affine] = None

    def key(self) -> tuple:
        """Hashable identity used for equivalence-class grouping."""
        subs = tuple(s.key() if s is not None else ("<nonaffine>", id(self)) for s in self.subscripts)
        off = self.deref_offset.key() if self.deref_offset is not None else None
        return (
            self.base.uid if self.base is not None else -id(self),
            self.is_deref,
            subs,
            self.field_name,
            off,
        )

    def __str__(self) -> str:
        base = self.base.name if self.base else "?"
        out = f"*{base}" if self.is_deref else base
        for s in self.subscripts:
            out += f"[{s}]" if s is not None else "[?]"
        if self.field_name:
            out += f".{self.field_name}"
        if self.deref_offset is not None and (
            self.deref_offset.terms or self.deref_offset.const
        ):
            out += f"+({self.deref_offset})"
        return out


@dataclass
class Access:
    """One canonical-order memory access produced by the enumerator."""

    node: ast.Expr
    kind: AccessKind
    line: int
    role: AccessRole = AccessRole.VALUE
    arg_index: int = -1  # for STACK_ARG / ENTRY_PARAM roles


@dataclass
class MemoryItem:
    """An HLI item: ``(ID, type)`` plus analysis-side metadata.

    Only ``item_id``, ``kind`` and ``line`` are serialized into the HLI
    line table; ``ref`` drives table construction in the front-end.
    """

    item_id: int
    kind: AccessKind
    line: int
    ref: Optional[SymbolicRef] = None
    callee: Optional[str] = None
    role: AccessRole = AccessRole.VALUE
    node: Optional[ast.Expr] = field(default=None, repr=False)
    #: Modification-epoch snapshot: for every scalar symbol appearing in
    #: the ref's subscripts, the number of assignments to it seen by the
    #: ITEMGEN walk so far.  Two items with equal epochs for a symbol saw
    #: the same value of it within one iteration of their home region,
    #: which lets constant-offset subscripts (``perm[j]`` vs ``perm[j-1]``)
    #: be disambiguated even when the symbol varies across iterations.
    epochs: tuple[tuple[int, int], ...] = ()

    def __hash__(self) -> int:
        return self.item_id


# ---------------------------------------------------------------------------
# Canonical access enumeration (the shared "RTL generation rules")
# ---------------------------------------------------------------------------


def _is_memory_name(e: ast.Expr) -> bool:
    return (
        isinstance(e, ast.Name)
        and isinstance(e.symbol, Symbol)
        and e.symbol.in_memory
        and not e.symbol.ty.is_array
        and not isinstance(e.symbol.ty, StructType)
    )


def walk_rvalue(e: ast.Expr) -> list[Access]:
    """Accesses performed when evaluating ``e`` for its value."""
    out: list[Access] = []
    _rvalue(e, out)
    return out


def _rvalue(e: ast.Expr, out: list[Access]) -> None:
    # Most frequent node classes first; the classes are disjoint.
    if isinstance(e, ast.Name):
        if _is_memory_name(e):
            out.append(Access(e, AccessKind.LOAD, e.line))
        return
    if isinstance(e, (ast.IntLit, ast.FloatLit, ast.StringLit)):
        return
    if isinstance(e, ast.Binary):
        assert e.lhs is not None and e.rhs is not None
        _rvalue(e.lhs, out)
        _rvalue(e.rhs, out)
        return
    if isinstance(e, (ast.Index, ast.FieldAccess)):
        _address(e, out)
        # Subscripting an array-of-arrays produces an address, not a load.
        if e.ty is not None and e.ty.is_array:
            return
        out.append(Access(e, AccessKind.LOAD, e.line))
        return
    if isinstance(e, ast.Assign):
        _assign(e, out)
        return
    if isinstance(e, ast.Call):
        _call(e, out)
        return
    if isinstance(e, ast.Unary):
        assert e.operand is not None
        if e.op is ast.UnaryOp.DEREF:
            _rvalue(e.operand, out)
            out.append(Access(e, AccessKind.LOAD, e.line))
            return
        if e.op is ast.UnaryOp.ADDR:
            _address(e.operand, out)
            return
        _rvalue(e.operand, out)
        return
    if isinstance(e, ast.IncDec):
        _incdec(e, out)
        return
    if isinstance(e, ast.Conditional):
        assert e.cond and e.then and e.otherwise
        _rvalue(e.cond, out)
        _rvalue(e.then, out)
        _rvalue(e.otherwise, out)
        return
    raise TypeError(f"unhandled expression {type(e).__name__}")  # pragma: no cover


def _address(e: ast.Expr, out: list[Access]) -> None:
    """Accesses performed when computing the *address* of lvalue ``e``."""
    if isinstance(e, ast.Name):
        return  # frame/global address is a constant
    if isinstance(e, ast.Index):
        assert e.base is not None and e.index is not None
        bty = e.base.ty
        if bty is not None and bty.is_array:
            _address(e.base, out)
        else:
            # base is a pointer *value*
            _rvalue(e.base, out)
        _rvalue(e.index, out)
        return
    if isinstance(e, ast.FieldAccess):
        assert e.base is not None
        if e.arrow:
            _rvalue(e.base, out)
        else:
            _address(e.base, out)
        return
    if isinstance(e, ast.Unary) and e.op is ast.UnaryOp.DEREF:
        assert e.operand is not None
        _rvalue(e.operand, out)
        return
    # e.g. &(*(p+1)) style constructs fall through above; anything else has
    # no address (semantic analysis rejects it as an lvalue).
    return


def _store(e: ast.Expr, out: list[Access]) -> None:
    """The STORE access to lvalue ``e`` itself (address accesses NOT included)."""
    if isinstance(e, ast.Name):
        if _is_memory_name(e):
            out.append(Access(e, AccessKind.STORE, e.line))
        return
    if isinstance(e, (ast.Index, ast.FieldAccess)):
        out.append(Access(e, AccessKind.STORE, e.line))
        return
    if isinstance(e, ast.Unary) and e.op is ast.UnaryOp.DEREF:
        out.append(Access(e, AccessKind.STORE, e.line))
        return
    raise TypeError(f"not an lvalue: {type(e).__name__}")  # pragma: no cover


def _lvalue_load(e: ast.Expr, out: list[Access]) -> None:
    """A LOAD of lvalue ``e`` (for compound assignment), address NOT included."""
    if isinstance(e, ast.Name):
        if _is_memory_name(e):
            out.append(Access(e, AccessKind.LOAD, e.line))
        return
    if isinstance(e, (ast.Index, ast.FieldAccess)):
        out.append(Access(e, AccessKind.LOAD, e.line))
        return
    if isinstance(e, ast.Unary) and e.op is ast.UnaryOp.DEREF:
        out.append(Access(e, AccessKind.LOAD, e.line))
        return


def _assign(e: ast.Assign, out: list[Access]) -> None:
    assert e.target is not None and e.value is not None
    _rvalue(e.value, out)
    _address(e.target, out)
    if e.op is not ast.AssignOp.ASSIGN:
        _lvalue_load(e.target, out)
    _store(e.target, out)


def _incdec(e: ast.IncDec, out: list[Access]) -> None:
    assert e.target is not None
    _address(e.target, out)
    _lvalue_load(e.target, out)
    _store(e.target, out)


def _call(e: ast.Call, out: list[Access]) -> None:
    for idx, arg in enumerate(e.args):
        _rvalue(arg, out)
        if idx >= NUM_ARG_REGS:
            out.append(Access(e, AccessKind.STORE, e.line, AccessRole.STACK_ARG, arg_index=idx))
    out.append(Access(e, AccessKind.CALL, e.line, AccessRole.CALLSITE))


def walk_stmt_accesses(stmt: ast.Stmt) -> list[Access]:
    """Accesses of the statement's *own* expressions, canonical order.

    Sub-statements (loop/if bodies, a ``for`` init) are NOT entered:
    callers traverse the statement tree themselves so each access lands
    in the right region.  For ``for`` statements that leaves cond, then
    step, as :func:`~repro.frontend.ast_nodes.stmt_exprs` gives them.
    """
    out: list[Access] = []
    _stmt_accesses(stmt, out)
    return out


def function_accesses(fn: ast.FuncDef) -> list[Access]:
    """Every access of ``fn``'s body once, statement by statement in
    :func:`~repro.frontend.ast_nodes.walk_own_stmts` order."""
    assert fn.body is not None
    out: list[Access] = []
    for stmt in ast.walk_own_stmts(fn.body):
        _stmt_accesses(stmt, out)
    return out


def _stmt_accesses(stmt: ast.Stmt, out: list[Access]) -> None:
    if isinstance(stmt, ast.VarDecl):
        if stmt.init is not None:
            _rvalue(stmt.init, out)
            sym = stmt.symbol
            if isinstance(sym, Symbol) and sym.in_memory and not sym.ty.is_array:
                name = ast.Name(line=stmt.line, ident=stmt.name)
                name.symbol = sym
                name.ty = sym.ty
                out.append(Access(name, AccessKind.STORE, stmt.line))
        return
    if isinstance(stmt, ast.DeclGroup):
        for d in stmt.decls:
            _stmt_accesses(d, out)
        return
    for e in ast.stmt_exprs(stmt):
        _rvalue(e, out)


# ---------------------------------------------------------------------------
# SymbolicRef construction
# ---------------------------------------------------------------------------


def ref_base(node: ast.Expr) -> tuple[Optional[Symbol], bool]:
    """``(base, is_deref)`` of access ``node``'s :func:`symbolic_ref`,
    without building its subscripts."""
    if isinstance(node, ast.Index):
        e: ast.Expr = node
        while isinstance(e, ast.Index):
            assert e.base is not None
            e = e.base
        if isinstance(e, ast.Name) and isinstance(e.symbol, Symbol):
            return e.symbol, isinstance(e.symbol.ty, PointerType)
        if isinstance(e, ast.FieldAccess):
            return ref_base(e)
        return None, True
    if isinstance(node, ast.Unary) and node.op is ast.UnaryOp.DEREF:
        # *p  or  *(p + k)
        operand = node.operand
        assert operand is not None
        if isinstance(operand, ast.Binary) and operand.op in (ast.BinOp.ADD, ast.BinOp.SUB):
            operand = operand.lhs
        if isinstance(operand, ast.Name) and isinstance(operand.symbol, Symbol):
            return operand.symbol, True
        return None, True
    if isinstance(node, (ast.Name, ast.FieldAccess)):
        # a variable, or the struct variable / pointer of ``s.f`` / ``p->f``
        b = node.base if isinstance(node, ast.FieldAccess) else node
        sym = b.symbol if isinstance(b, ast.Name) and isinstance(b.symbol, Symbol) else None
        return sym, isinstance(node, ast.FieldAccess) and node.arrow
    raise TypeError(f"no symbolic ref for {type(node).__name__}")  # pragma: no cover


def symbolic_ref(node: ast.Expr) -> SymbolicRef:
    """Build the analysis-side description of access ``node``."""
    base, is_deref = ref_base(node)
    if isinstance(node, ast.Index):
        subs: list[Optional[Affine]] = []
        e: ast.Expr = node
        while isinstance(e, ast.Index):
            assert e.index is not None and e.base is not None
            subs.append(affine_of(e.index))
            e = e.base
        subs.reverse()
        return SymbolicRef(
            base=base,
            is_deref=is_deref,
            subscripts=tuple(subs),
            field_name=e.fieldname if isinstance(e, ast.FieldAccess) else None,
        )
    if isinstance(node, ast.FieldAccess):
        return SymbolicRef(base=base, is_deref=is_deref, field_name=node.fieldname)
    if base is not None and isinstance(node, ast.Unary):
        operand = node.operand
        if isinstance(operand, ast.Binary) and operand.rhs is not None:
            off = affine_of(operand.rhs)
            if off is not None and operand.op is ast.BinOp.SUB:
                off = -off
            return SymbolicRef(base=base, is_deref=True, deref_offset=off)
    return SymbolicRef(base=base, is_deref=is_deref)


def ref_for_access(acc: Access) -> Optional[SymbolicRef]:
    """SymbolicRef for an access, handling the ABI-induced roles."""
    if acc.role is AccessRole.CALLSITE:
        return None
    if acc.role is AccessRole.STACK_ARG:
        return SymbolicRef(base=arg_slot_symbol(acc.arg_index))
    if acc.role is AccessRole.ENTRY_PARAM:
        return SymbolicRef(base=arg_slot_symbol(acc.arg_index))
    return symbolic_ref(acc.node)


# ---------------------------------------------------------------------------
# ITEMGEN driver
# ---------------------------------------------------------------------------


class ItemGenerator:
    """Assign item IDs over one function, in canonical order.

    Produces the per-line item lists (the HLI line table content) and a map
    from region to the items *immediately* contained in it.  Item IDs are
    allocated from a caller-supplied counter so that region/class IDs can
    share the same number space (the paper gives classes item IDs).

    The generator also maintains the per-symbol modification-epoch
    counters snapshotted into each item (see :class:`MemoryItem.epochs`).
    """

    def __init__(self, next_id) -> None:
        self._next_id = next_id
        self.items: list[MemoryItem] = []
        #: item -> its immediately enclosing Region (set by caller)
        self.item_region: dict[int, object] = {}
        #: scalar symbol uid -> number of assignments walked so far
        self.mod_counts: dict[int, int] = {}
        self._taint = 0

    def bump_epochs(self, sym_uids: set[int]) -> None:
        for uid in sym_uids:
            self.mod_counts[uid] = self.mod_counts.get(uid, 0) + 1

    def _snapshot(self, ref: Optional[SymbolicRef], tainted: set[int]) -> tuple:
        if ref is None:
            return ()
        uids: set[int] = set()
        if ref.is_deref and ref.base is not None:
            # The pointed-to location changes when the pointer itself is
            # reassigned: the base is part of the address for derefs.
            uids.add(ref.base.uid)
        forms = list(ref.subscripts)
        if ref.deref_offset is not None:
            forms.append(ref.deref_offset)
        for f in forms:
            if f is None:
                continue
            for s in f.symbols():
                uids.add(s.uid)
        out = []
        for uid in sorted(uids):
            if uid in tainted:
                # The enclosing statement itself assigns this symbol: give
                # the item a unique epoch so no rescue ever applies.
                self._taint -= 1
                out.append((uid, self._taint))
            else:
                out.append((uid, self.mod_counts.get(uid, 0)))
        return tuple(out)

    def gen_for_accesses(
        self, accesses: list[Access], region, tainted: set[int] | None = None
    ) -> list[MemoryItem]:
        """Create items for ``accesses``, all in ``region``; returns them.

        ``tainted`` lists symbol uids assigned by the statement the
        accesses belong to (their epoch comparisons are disabled).
        """
        out: list[MemoryItem] = []
        tainted = tainted or set()
        for acc in accesses:
            ref = ref_for_access(acc)
            item = MemoryItem(
                item_id=self._next_id(),
                kind=acc.kind,
                line=acc.line,
                ref=ref,
                callee=acc.node.callee if isinstance(acc.node, ast.Call) else None,
                role=acc.role,
                node=acc.node,
                epochs=self._snapshot(ref, tainted),
            )
            # Annotate the AST node, as SUIF annotates its IR (Section 3.1.1).
            if acc.role is AccessRole.VALUE and acc.kind is not AccessKind.CALL:
                acc.node.item_id = item.item_id
            out.append(item)
            self.items.append(item)
            self.item_region[item.item_id] = region
        return out
