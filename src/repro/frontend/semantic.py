"""Semantic analysis for MiniC: name resolution and type checking.

Responsibilities:

* build the :class:`~repro.frontend.symbols.SymbolTable` and attach a
  ``Symbol`` to every :class:`~repro.frontend.ast_nodes.Name`, ``VarDecl``
  and ``Param``;
* compute and record the static type of every expression (``expr.ty``);
* mark symbols whose address is taken (they stay in memory and therefore
  generate HLI items, paper Section 3.1.1);
* validate assignments, calls, subscripting and control flow.

Well-known library functions (``printf`` etc.) are pre-declared as
*external*: REF/MOD analysis treats calls to them as clobbering all
addressable memory unless listed in :data:`PURE_EXTERNALS`.
"""

from __future__ import annotations

from . import ast_nodes as ast
from .errors import SemanticError, SourcePos
from .symbols import FunctionSymbol, Scope, StorageClass, Symbol, SymbolTable
from .typesys import (
    DOUBLE,
    INT,
    VOID,
    ArrayType,
    FunctionType,
    PointerType,
    StructType,
    Type,
    common_arith_type,
)

#: External functions that read/modify nothing the program can observe
#: through its own variables (their REF/MOD sets are empty).
PURE_EXTERNALS = {"sqrt", "fabs", "sin", "cos", "exp", "log", "pow", "abs", "getchar", "rand"}

#: Externals pre-declared for benchmark realism.  Variadic behaviour is
#: approximated: extra arguments are accepted for names in VARIADIC.
EXTERNAL_SIGNATURES: dict[str, FunctionType] = {
    "printf": FunctionType(INT, ()),
    "malloc": FunctionType(PointerType(INT), (INT,)),
    "free": FunctionType(VOID, (PointerType(INT),)),
    "getchar": FunctionType(INT, ()),
    "putchar": FunctionType(INT, (INT,)),
    "exit": FunctionType(VOID, (INT,)),
    "rand": FunctionType(INT, ()),
    "abs": FunctionType(INT, (INT,)),
}
VARIADIC = {"printf"}

# Math externals get proper double signatures.
for _name in ("sqrt", "fabs", "sin", "cos", "exp", "log"):
    EXTERNAL_SIGNATURES[_name] = FunctionType(DOUBLE, (DOUBLE,))
EXTERNAL_SIGNATURES["pow"] = FunctionType(DOUBLE, (DOUBLE, DOUBLE))


class SemanticAnalyzer:
    """Single-pass (plus pre-declaration) semantic checker."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.table = SymbolTable()
        self.current_fn: ast.FuncDef | None = None
        self.loop_depth = 0

    def _at(self, line: int) -> SourcePos:
        """Where a diagnostic points: this unit's file, ``line``, column 1
        (AST nodes carry no column)."""
        return SourcePos(line, 1, self.program.filename)

    # -- entry point ---------------------------------------------------------

    def run(self) -> SymbolTable:
        """Analyze the program; returns the populated symbol table."""
        for name, ftype in EXTERNAL_SIGNATURES.items():
            self.table.declare_function(
                FunctionSymbol(name=name, ty=ftype, defined=False, external=True)
            )
        for sdef in self.program.structs:
            self.table.structs[sdef.name] = StructType(sdef.name, tuple(sdef.fields))
        for decl in self.program.globals:
            self._declare_global(decl)
        # Declare prototypes first (regardless of source position) so a
        # definition anywhere in the unit can check against them.
        proto_types: dict[str, FunctionType] = {}
        for proto in self.program.protos:
            ptype = FunctionType(proto.ret or VOID, tuple(p.ty or INT for p in proto.params))
            seen = proto_types.get(proto.name)
            if seen is not None and seen != ptype:
                raise SemanticError(
                    f"conflicting declarations of function '{proto.name}'",
                    self._at(proto.line),
                )
            proto_types[proto.name] = ptype
            self.table.declare_function(
                FunctionSymbol(
                    name=proto.name, ty=ptype, line=proto.line, defined=False, external=True
                )
            )
        # Pre-declare all functions so mutual recursion works.
        for fn in self.program.functions:
            ftype = FunctionType(fn.ret or VOID, tuple(p.ty or INT for p in fn.params))
            declared = proto_types.get(fn.name)
            if declared is not None and declared != ftype:
                raise SemanticError(
                    f"definition of '{fn.name}' conflicts with its prototype",
                    self._at(fn.line),
                )
            try:
                self.table.declare_function(
                    FunctionSymbol(name=fn.name, ty=ftype, line=fn.line, defined=True)
                )
            except KeyError:
                raise SemanticError(
                    f"redefinition of function '{fn.name}'", self._at(fn.line)
                ) from None
        for fn in self.program.functions:
            self._check_function(fn)
        return self.table

    # -- declarations ----------------------------------------------------------

    def _declare_global(self, decl: ast.VarDecl) -> None:
        storage = StorageClass.STATIC if decl.is_static else StorageClass.GLOBAL
        existing = self.table.global_scope.names.get(decl.name)
        if existing is not None:
            # An extern declaration may coexist with (or precede) the
            # defining declaration of the same global; both resolve to one
            # Symbol.  Anything else is a redeclaration error.
            if not (decl.is_extern or existing.is_extern):
                raise SemanticError(
                    f"redeclaration of global '{decl.name}'", self._at(decl.line)
                )
            if existing.ty != (decl.ty or INT):
                raise SemanticError(
                    f"conflicting types for global '{decl.name}'", self._at(decl.line)
                )
            if not decl.is_extern:
                existing.is_extern = False  # the defining declaration wins
            decl.symbol = existing
            if decl.init is not None:
                self._check_expr(decl.init, self.table.global_scope)
            return
        sym = Symbol(
            name=decl.name,
            ty=decl.ty or INT,
            storage=storage,
            line=decl.line,
            is_extern=decl.is_extern,
        )
        self.table.global_scope.declare(sym)
        decl.symbol = sym
        if decl.init is not None:
            self._check_expr(decl.init, self.table.global_scope)

    def _check_function(self, fn: ast.FuncDef) -> None:
        self.current_fn = fn
        scope = Scope(self.table.global_scope)
        for p in fn.params:
            sym = Symbol(
                name=p.name, ty=p.ty or INT, storage=StorageClass.PARAM, line=p.line
            )
            try:
                scope.declare(sym)
            except KeyError:
                raise SemanticError(
                    f"duplicate parameter '{p.name}'", self._at(p.line)
                ) from None
            p.symbol = sym
        assert fn.body is not None
        self._check_block(fn.body, scope)
        self.current_fn = None

    # -- statements ------------------------------------------------------------

    def _check_block(self, block: ast.Block, parent: Scope) -> None:
        scope = Scope(parent)
        for stmt in block.stmts:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt: ast.Stmt, scope: Scope) -> None:
        if isinstance(stmt, ast.VarDecl):
            storage = StorageClass.STATIC if stmt.is_static else StorageClass.LOCAL
            sym = Symbol(name=stmt.name, ty=stmt.ty or INT, storage=storage, line=stmt.line)
            if stmt.init is not None:
                self._check_expr(stmt.init, scope)
            try:
                scope.declare(sym)
            except KeyError:
                raise SemanticError(
                    f"redeclaration of '{stmt.name}'", self._at(stmt.line)
                ) from None
            stmt.symbol = sym
        elif isinstance(stmt, ast.DeclGroup):
            for d in stmt.decls:
                self._check_stmt(d, scope)
        elif isinstance(stmt, ast.Block):
            self._check_block(stmt, scope)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.If):
            self._check_expr(stmt.cond, scope)
            self._check_stmt(stmt.then, scope)
            if stmt.otherwise is not None:
                self._check_stmt(stmt.otherwise, scope)
        elif isinstance(stmt, ast.While):
            self._check_expr(stmt.cond, scope)
            self._in_loop(stmt.body, scope)
        elif isinstance(stmt, ast.DoWhile):
            self._in_loop(stmt.body, scope)
            self._check_expr(stmt.cond, scope)
        elif isinstance(stmt, ast.For):
            inner = Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._check_expr(stmt.cond, inner)
            if stmt.step is not None:
                self._check_expr(stmt.step, inner)
            self._in_loop(stmt.body, inner)
        elif isinstance(stmt, ast.Return):
            assert self.current_fn is not None
            ret_ty = self.current_fn.ret or VOID
            if stmt.value is not None:
                vty = self._check_expr(stmt.value, scope)
                if ret_ty.is_void:
                    raise SemanticError(
                        "returning a value from a void function", self._at(stmt.line)
                    )
                _ = vty  # MiniC allows implicit numeric conversion on return
            elif not ret_ty.is_void:
                raise SemanticError(
                    "non-void function must return a value", self._at(stmt.line)
                )
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if self.loop_depth == 0:
                raise SemanticError("break/continue outside a loop", self._at(stmt.line))
        else:  # pragma: no cover - exhaustiveness guard
            raise SemanticError(f"unknown statement {type(stmt).__name__}")

    def _in_loop(self, body: ast.Stmt | None, scope: Scope) -> None:
        if body is None:
            return
        self.loop_depth += 1
        try:
            self._check_stmt(body, scope)
        finally:
            self.loop_depth -= 1

    # -- expressions ------------------------------------------------------------

    def _check_expr(self, expr: ast.Expr, scope: Scope) -> Type:
        ty = self._infer(expr, scope)
        expr.ty = ty
        return ty

    def _infer(self, expr: ast.Expr, scope: Scope) -> Type:
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.FloatLit):
            return DOUBLE
        if isinstance(expr, ast.StringLit):
            from .typesys import CHAR

            return PointerType(CHAR)
        if isinstance(expr, ast.Name):
            sym = scope.lookup(expr.ident)
            if sym is None:
                raise SemanticError(
                    f"use of undeclared identifier '{expr.ident}'", self._at(expr.line)
                )
            expr.symbol = sym
            return sym.ty
        if isinstance(expr, ast.Unary):
            assert expr.operand is not None
            oty = self._check_expr(expr.operand, scope)
            if expr.op is ast.UnaryOp.DEREF:
                if isinstance(oty, PointerType):
                    return oty.pointee
                if isinstance(oty, ArrayType):
                    return self._array_peel(oty)
                raise SemanticError("dereference of non-pointer", self._at(expr.line))
            if expr.op is ast.UnaryOp.ADDR:
                self._mark_address_taken(expr.operand)
                if isinstance(oty, ArrayType):
                    return PointerType(oty.element)
                return PointerType(oty)
            if expr.op in (ast.UnaryOp.NOT,):
                return INT
            return oty
        if isinstance(expr, ast.Binary):
            assert expr.lhs is not None and expr.rhs is not None
            lty = self._check_expr(expr.lhs, scope)
            rty = self._check_expr(expr.rhs, scope)
            if expr.op in ast.BOOLEAN_OPS:
                return INT
            # pointer arithmetic: ptr +/- int yields ptr
            if lty.is_pointer and rty.is_integer:
                return lty
            if rty.is_pointer and lty.is_integer and expr.op is ast.BinOp.ADD:
                return rty
            if isinstance(lty, ArrayType) and rty.is_integer:
                return PointerType(lty.element)
            return common_arith_type(lty, rty)
        if isinstance(expr, ast.Conditional):
            assert expr.cond and expr.then and expr.otherwise
            self._check_expr(expr.cond, scope)
            t1 = self._check_expr(expr.then, scope)
            t2 = self._check_expr(expr.otherwise, scope)
            return common_arith_type(t1, t2)
        if isinstance(expr, ast.Index):
            assert expr.base is not None and expr.index is not None
            bty = self._check_expr(expr.base, scope)
            ity = self._check_expr(expr.index, scope)
            if not ity.is_integer:
                raise SemanticError("array subscript must be an integer", self._at(expr.line))
            if isinstance(bty, ArrayType):
                return self._array_peel(bty)
            if isinstance(bty, PointerType):
                return bty.pointee
            raise SemanticError("subscript of non-array", self._at(expr.line))
        if isinstance(expr, ast.FieldAccess):
            assert expr.base is not None
            bty = self._check_expr(expr.base, scope)
            if expr.arrow:
                if not isinstance(bty, PointerType) or not isinstance(bty.pointee, StructType):
                    raise SemanticError("'->' on non-struct-pointer", self._at(expr.line))
                st = bty.pointee
            else:
                if not isinstance(bty, StructType):
                    raise SemanticError("'.' on non-struct", self._at(expr.line))
                st = bty
            try:
                return st.field_type(expr.fieldname)
            except KeyError:
                raise SemanticError(
                    f"no field '{expr.fieldname}' in {st}", self._at(expr.line)
                ) from None
        if isinstance(expr, ast.Call):
            fsym = self.table.lookup_function(expr.callee)
            if fsym is None:
                raise SemanticError(
                    f"call to undeclared function '{expr.callee}'", self._at(expr.line)
                )
            expr.symbol = fsym
            for a in expr.args:
                aty = self._check_expr(a, scope)
                # Passing an array or taking a pointer to a variable exposes
                # it to the callee: treat like an address-taken use for alias
                # purposes when the argument is a bare array name.
                if isinstance(aty, (ArrayType,)):
                    self._mark_address_taken(a)
            if expr.callee not in VARIADIC and len(expr.args) != len(fsym.ty.params):
                if not fsym.external:
                    raise SemanticError(
                        f"'{expr.callee}' expects {len(fsym.ty.params)} args, "
                        f"got {len(expr.args)}",
                        self._at(expr.line),
                    )
            return fsym.ty.ret
        if isinstance(expr, ast.Assign):
            assert expr.target is not None and expr.value is not None
            vty = self._check_expr(expr.value, scope)
            tty = self._check_expr(expr.target, scope)
            self._require_lvalue(expr.target)
            if isinstance(tty, ArrayType):
                raise SemanticError("cannot assign to an array", self._at(expr.line))
            _ = vty
            return tty
        if isinstance(expr, ast.IncDec):
            assert expr.target is not None
            tty = self._check_expr(expr.target, scope)
            self._require_lvalue(expr.target)
            return tty
        raise SemanticError(f"unknown expression {type(expr).__name__}")  # pragma: no cover

    @staticmethod
    def _array_peel(aty: ArrayType) -> Type:
        """Result type of subscripting ``aty`` once."""
        if len(aty.dims) > 1:
            return ArrayType(aty.element, aty.dims[1:])
        return aty.element

    def _require_lvalue(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Name):
            return
        if isinstance(expr, ast.Index):
            return
        if isinstance(expr, ast.FieldAccess):
            return
        if isinstance(expr, ast.Unary) and expr.op is ast.UnaryOp.DEREF:
            return
        raise SemanticError("expression is not assignable", self._at(expr.line))

    def _mark_address_taken(self, expr: ast.Expr) -> None:
        """Record that the storage behind ``expr`` escapes via '&' (or array passing)."""
        e: ast.Expr | None = expr
        while e is not None:
            if isinstance(e, ast.Name):
                if isinstance(e.symbol, Symbol):
                    e.symbol.address_taken = True
                return
            if isinstance(e, ast.Index):
                e = e.base
            elif isinstance(e, ast.FieldAccess):
                e = e.base
            else:
                return


def analyze(program: ast.Program) -> SymbolTable:
    """Run semantic analysis on ``program`` in place; returns the symbol table."""
    return SemanticAnalyzer(program).run()
