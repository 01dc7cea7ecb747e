"""Recursive-descent parser for MiniC.

The grammar is a practical C subset sufficient for the paper's SPEC-style
benchmark kernels: global/static variables, multi-dimensional arrays,
pointers, structs, functions, the full statement repertoire
(``if``/``for``/``while``/``do``/``break``/``continue``/``return``), and C
expressions with standard precedence.

The parser builds :mod:`repro.frontend.ast_nodes` trees with precise line
annotations; it performs no name resolution (see
:mod:`repro.frontend.semantic`).
"""

from __future__ import annotations

from . import ast_nodes as ast
from .errors import ParseError
from .lexer import Lexer
from .source import SourceFile
from .tokens import Token, TokenKind
from .typesys import (
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    VOID,
    ArrayType,
    PointerType,
    StructType,
    Type,
)

_TYPE_KEYWORDS = {
    TokenKind.KW_INT: INT,
    TokenKind.KW_FLOAT: FLOAT,
    TokenKind.KW_DOUBLE: DOUBLE,
    TokenKind.KW_CHAR: CHAR,
    TokenKind.KW_VOID: VOID,
}

# Binary operator precedence, higher binds tighter.  Mirrors C.
_BIN_PREC: dict[TokenKind, tuple[int, ast.BinOp]] = {
    TokenKind.OROR: (1, ast.BinOp.OR),
    TokenKind.ANDAND: (2, ast.BinOp.AND),
    TokenKind.PIPE: (3, ast.BinOp.BITOR),
    TokenKind.CARET: (4, ast.BinOp.BITXOR),
    TokenKind.AMP: (5, ast.BinOp.BITAND),
    TokenKind.EQ: (6, ast.BinOp.EQ),
    TokenKind.NE: (6, ast.BinOp.NE),
    TokenKind.LT: (7, ast.BinOp.LT),
    TokenKind.GT: (7, ast.BinOp.GT),
    TokenKind.LE: (7, ast.BinOp.LE),
    TokenKind.GE: (7, ast.BinOp.GE),
    TokenKind.LSHIFT: (8, ast.BinOp.SHL),
    TokenKind.RSHIFT: (8, ast.BinOp.SHR),
    TokenKind.PLUS: (9, ast.BinOp.ADD),
    TokenKind.MINUS: (9, ast.BinOp.SUB),
    TokenKind.STAR: (10, ast.BinOp.MUL),
    TokenKind.SLASH: (10, ast.BinOp.DIV),
    TokenKind.PERCENT: (10, ast.BinOp.MOD),
}

_ASSIGN_OPS: dict[TokenKind, ast.AssignOp] = {
    TokenKind.ASSIGN: ast.AssignOp.ASSIGN,
    TokenKind.PLUS_ASSIGN: ast.AssignOp.ADD,
    TokenKind.MINUS_ASSIGN: ast.AssignOp.SUB,
    TokenKind.STAR_ASSIGN: ast.AssignOp.MUL,
    TokenKind.SLASH_ASSIGN: ast.AssignOp.DIV,
}


class Parser:
    """Parse a token stream into a :class:`~repro.frontend.ast_nodes.Program`."""

    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.toks: list[Token] = Lexer(source).tokens()
        self.i = 0
        self.struct_types: dict[str, StructType] = {}

    # -- token utilities ----------------------------------------------------

    # ``self.i`` never passes the final EOF token (``_advance`` stops
    # there), so the current token is always ``self.toks[self.i]``.

    def _peek(self, offset: int) -> Token:
        """The token ``offset`` places ahead; EOF past the end."""
        try:
            return self.toks[self.i + offset]
        except IndexError:
            return self.toks[-1]

    def _at(self, kind: TokenKind) -> bool:
        return self.toks[self.i].kind is kind

    def _advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind is not TokenKind.EOF:
            self.i += 1
        return tok

    def _expect(self, kind: TokenKind) -> Token:
        tok = self.toks[self.i]
        if tok.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r}, found {tok.text or tok.kind.value!r}", tok.pos
            )
        return self._advance()

    def _accept(self, kind: TokenKind) -> Token | None:
        if self.toks[self.i].kind is kind:
            return self._advance()
        return None

    # -- types ----------------------------------------------------------------

    def _at_type(self) -> bool:
        k = self.toks[self.i].kind
        if k in _TYPE_KEYWORDS:
            return True
        if k is TokenKind.KW_STRUCT:
            return True
        if k in (TokenKind.KW_STATIC, TokenKind.KW_CONST):
            return True
        return False

    def _parse_base_type(self) -> Type:
        tok = self.toks[self.i]
        if tok.kind in _TYPE_KEYWORDS:
            self._advance()
            return _TYPE_KEYWORDS[tok.kind]
        if tok.kind is TokenKind.KW_STRUCT:
            self._advance()
            name_tok = self._expect(TokenKind.IDENT)
            st = self.struct_types.get(name_tok.text)
            if st is None:
                raise ParseError(f"unknown struct '{name_tok.text}'", name_tok.pos)
            return st
        raise ParseError(f"expected type, found {tok.text!r}", tok.pos)

    def _parse_pointers(self, base: Type) -> Type:
        ty = base
        while self._accept(TokenKind.STAR):
            ty = PointerType(ty)
        return ty

    def _parse_array_suffix(self, ty: Type) -> Type:
        dims: list[int] = []
        while self._accept(TokenKind.LBRACKET):
            dim_tok = self._expect(TokenKind.INT_LIT)
            dims.append(int(dim_tok.value))  # type: ignore[arg-type]
            self._expect(TokenKind.RBRACKET)
        if dims:
            return ArrayType(ty, tuple(dims))
        return ty

    # -- top level --------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        """Parse the full translation unit."""
        prog = ast.Program(line=1, filename=self.source.filename)
        while not self._at(TokenKind.EOF):
            if self._at(TokenKind.KW_STRUCT) and self._peek(2).kind is TokenKind.LBRACE:
                prog.structs.append(self._parse_struct_def())
                continue
            is_extern = self._accept(TokenKind.KW_EXTERN) is not None
            is_static = self._accept(TokenKind.KW_STATIC) is not None
            if is_extern and is_static:
                raise ParseError("'extern' and 'static' cannot be combined", self.toks[self.i].pos)
            self._accept(TokenKind.KW_CONST)
            base = self._parse_base_type()
            ty = self._parse_pointers(base)
            name_tok = self._expect(TokenKind.IDENT)
            if self._at(TokenKind.LPAREN):
                node = self._parse_func_def(ty, name_tok, is_static, is_extern)
                if isinstance(node, ast.FuncProto):
                    prog.protos.append(node)
                else:
                    prog.functions.append(node)
            else:
                self._parse_global_decl(prog, ty, name_tok, is_static, is_extern)
        return prog

    def _parse_struct_def(self) -> ast.StructDef:
        kw = self._expect(TokenKind.KW_STRUCT)
        name_tok = self._expect(TokenKind.IDENT)
        self._expect(TokenKind.LBRACE)
        fields: list[tuple[str, Type]] = []
        while not self._accept(TokenKind.RBRACE):
            base = self._parse_base_type()
            while True:
                fty = self._parse_pointers(base)
                fname = self._expect(TokenKind.IDENT)
                fty = self._parse_array_suffix(fty)
                fields.append((fname.text, fty))
                if not self._accept(TokenKind.COMMA):
                    break
            self._expect(TokenKind.SEMI)
        self._expect(TokenKind.SEMI)
        st = StructType(name_tok.text, tuple(fields))
        self.struct_types[name_tok.text] = st
        return ast.StructDef(line=kw.pos.line, name=name_tok.text, fields=fields)

    def _parse_global_decl(
        self,
        prog: ast.Program,
        first_ty: Type,
        first_name: Token,
        is_static: bool,
        is_extern: bool = False,
    ) -> None:
        ty = self._parse_array_suffix(first_ty)
        init = None
        if self._accept(TokenKind.ASSIGN):
            if is_extern:
                raise ParseError(
                    f"extern declaration of '{first_name.text}' cannot have an initializer",
                    first_name.pos,
                )
            init = self._parse_assignment_expr()
        prog.globals.append(
            ast.VarDecl(
                line=first_name.pos.line,
                name=first_name.text,
                ty=ty,
                init=init,
                is_static=is_static,
                is_extern=is_extern,
            )
        )
        while self._accept(TokenKind.COMMA):
            base = first_ty
            while isinstance(base, PointerType):
                base = base.pointee  # comma-separated declarators restart from base type
            dty = self._parse_pointers(base)
            name_tok = self._expect(TokenKind.IDENT)
            dty = self._parse_array_suffix(dty)
            dinit = None
            if self._accept(TokenKind.ASSIGN):
                if is_extern:
                    raise ParseError(
                        f"extern declaration of '{name_tok.text}' cannot have an initializer",
                        name_tok.pos,
                    )
                dinit = self._parse_assignment_expr()
            prog.globals.append(
                ast.VarDecl(
                    line=name_tok.pos.line,
                    name=name_tok.text,
                    ty=dty,
                    init=dinit,
                    is_static=is_static,
                    is_extern=is_extern,
                )
            )
        self._expect(TokenKind.SEMI)

    def _parse_func_def(
        self, ret: Type, name_tok: Token, is_static: bool, is_extern: bool = False
    ) -> ast.FuncDef | ast.FuncProto:
        self._expect(TokenKind.LPAREN)
        params: list[ast.Param] = []
        if not self._at(TokenKind.RPAREN):
            if self._at(TokenKind.KW_VOID) and self._peek(1).kind is TokenKind.RPAREN:
                self._advance()
            else:
                while True:
                    self._accept(TokenKind.KW_CONST)
                    base = self._parse_base_type()
                    pty = self._parse_pointers(base)
                    pname = self._expect(TokenKind.IDENT)
                    # Array parameters decay to pointers, as in C.
                    if self._at(TokenKind.LBRACKET):
                        arr = self._parse_array_suffix(pty)
                        assert isinstance(arr, ArrayType)
                        if len(arr.dims) > 1:
                            pty = PointerType(ArrayType(arr.element, arr.dims[1:]))
                        else:
                            pty = PointerType(arr.element)
                    params.append(ast.Param(line=pname.pos.line, name=pname.text, ty=pty))
                    if not self._accept(TokenKind.COMMA):
                        break
        self._expect(TokenKind.RPAREN)
        if self._accept(TokenKind.SEMI):
            return ast.FuncProto(
                line=name_tok.pos.line,
                name=name_tok.text,
                ret=ret,
                params=params,
                is_extern=is_extern,
            )
        if is_extern:
            raise ParseError(
                f"extern function '{name_tok.text}' cannot have a body", name_tok.pos
            )
        body = self._parse_block()
        return ast.FuncDef(
            line=name_tok.pos.line,
            name=name_tok.text,
            ret=ret,
            params=params,
            body=body,
            is_static=is_static,
        )

    # -- statements ----------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        lb = self._expect(TokenKind.LBRACE)
        stmts: list[ast.Stmt] = []
        while not self._accept(TokenKind.RBRACE):
            stmts.append(self._parse_statement())
        return ast.Block(line=lb.pos.line, stmts=stmts)

    def _parse_statement(self) -> ast.Stmt:
        tok = self.toks[self.i]
        kind = tok.kind
        if kind is TokenKind.LBRACE:
            return self._parse_block()
        if self._at_type():
            return self._parse_local_decl()
        if kind is TokenKind.KW_IF:
            return self._parse_if()
        if kind is TokenKind.KW_FOR:
            return self._parse_for()
        if kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if kind is TokenKind.KW_DO:
            return self._parse_do_while()
        if kind is TokenKind.KW_RETURN:
            self._advance()
            value = None if self._at(TokenKind.SEMI) else self._parse_expr()
            self._expect(TokenKind.SEMI)
            return ast.Return(line=tok.pos.line, value=value)
        if kind is TokenKind.KW_BREAK:
            self._advance()
            self._expect(TokenKind.SEMI)
            return ast.Break(line=tok.pos.line)
        if kind is TokenKind.KW_CONTINUE:
            self._advance()
            self._expect(TokenKind.SEMI)
            return ast.Continue(line=tok.pos.line)
        if kind is TokenKind.SEMI:
            self._advance()
            return ast.Block(line=tok.pos.line, stmts=[])
        expr = self._parse_expr()
        self._expect(TokenKind.SEMI)
        return ast.ExprStmt(line=tok.pos.line, expr=expr)

    def _parse_local_decl(self) -> ast.Stmt:
        tok = self.toks[self.i]
        is_static = self._accept(TokenKind.KW_STATIC) is not None
        self._accept(TokenKind.KW_CONST)
        base = self._parse_base_type()
        decls: list[ast.Stmt] = []
        while True:
            dty = self._parse_pointers(base)
            name_tok = self._expect(TokenKind.IDENT)
            dty = self._parse_array_suffix(dty)
            init = None
            if self._accept(TokenKind.ASSIGN):
                init = self._parse_assignment_expr()
            decls.append(
                ast.VarDecl(
                    line=name_tok.pos.line,
                    name=name_tok.text,
                    ty=dty,
                    init=init,
                    is_static=is_static,
                )
            )
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.SEMI)
        if len(decls) == 1:
            return decls[0]
        return ast.DeclGroup(line=tok.pos.line, decls=decls)  # type: ignore[arg-type]

    def _parse_if(self) -> ast.If:
        kw = self._expect(TokenKind.KW_IF)
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN)
        then = self._parse_statement()
        otherwise = None
        if self._accept(TokenKind.KW_ELSE):
            otherwise = self._parse_statement()
        return ast.If(line=kw.pos.line, cond=cond, then=then, otherwise=otherwise)

    def _parse_for(self) -> ast.For:
        kw = self._expect(TokenKind.KW_FOR)
        self._expect(TokenKind.LPAREN)
        init: ast.Stmt | None = None
        if not self._at(TokenKind.SEMI):
            if self._at_type():
                init = self._parse_local_decl()
            else:
                expr = self._parse_expr()
                self._expect(TokenKind.SEMI)
                init = ast.ExprStmt(line=kw.pos.line, expr=expr)
        else:
            self._expect(TokenKind.SEMI)
        cond = None if self._at(TokenKind.SEMI) else self._parse_expr()
        self._expect(TokenKind.SEMI)
        step = None if self._at(TokenKind.RPAREN) else self._parse_expr()
        self._expect(TokenKind.RPAREN)
        body = self._parse_statement()
        return ast.For(line=kw.pos.line, init=init, cond=cond, step=step, body=body)

    def _parse_while(self) -> ast.While:
        kw = self._expect(TokenKind.KW_WHILE)
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN)
        body = self._parse_statement()
        return ast.While(line=kw.pos.line, cond=cond, body=body)

    def _parse_do_while(self) -> ast.DoWhile:
        kw = self._expect(TokenKind.KW_DO)
        body = self._parse_statement()
        self._expect(TokenKind.KW_WHILE)
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMI)
        return ast.DoWhile(line=kw.pos.line, body=body, cond=cond)

    # -- expressions --------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_assignment_expr()

    def _parse_assignment_expr(self) -> ast.Expr:
        lhs = self._parse_conditional()
        tok = self.toks[self.i]
        if tok.kind in _ASSIGN_OPS:
            self._advance()
            rhs = self._parse_assignment_expr()
            return ast.Assign(
                line=tok.pos.line, op=_ASSIGN_OPS[tok.kind], target=lhs, value=rhs
            )
        return lhs

    def _parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._at(TokenKind.QUESTION):
            qtok = self._advance()
            then = self._parse_expr()
            self._expect(TokenKind.COLON)
            otherwise = self._parse_conditional()
            return ast.Conditional(line=qtok.pos.line, cond=cond, then=then, otherwise=otherwise)
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        lhs = self._parse_unary()
        while True:
            tok = self.toks[self.i]
            entry = _BIN_PREC.get(tok.kind)
            if entry is None or entry[0] < min_prec:
                return lhs
            prec, op = entry
            self._advance()
            rhs = self._parse_binary(prec + 1)
            lhs = ast.Binary(line=tok.pos.line, op=op, lhs=lhs, rhs=rhs)

    def _parse_unary(self) -> ast.Expr:
        tok = self.toks[self.i]
        if tok.kind is TokenKind.MINUS:
            self._advance()
            operand = self._parse_unary()
            if isinstance(operand, ast.IntLit):
                return ast.IntLit(line=tok.pos.line, value=-operand.value)
            if isinstance(operand, ast.FloatLit):
                return ast.FloatLit(line=tok.pos.line, value=-operand.value)
            return ast.Unary(line=tok.pos.line, op=ast.UnaryOp.NEG, operand=operand)
        if tok.kind is TokenKind.BANG:
            self._advance()
            return ast.Unary(line=tok.pos.line, op=ast.UnaryOp.NOT, operand=self._parse_unary())
        if tok.kind is TokenKind.TILDE:
            self._advance()
            return ast.Unary(line=tok.pos.line, op=ast.UnaryOp.BITNOT, operand=self._parse_unary())
        if tok.kind is TokenKind.STAR:
            self._advance()
            return ast.Unary(line=tok.pos.line, op=ast.UnaryOp.DEREF, operand=self._parse_unary())
        if tok.kind is TokenKind.AMP:
            self._advance()
            return ast.Unary(line=tok.pos.line, op=ast.UnaryOp.ADDR, operand=self._parse_unary())
        if tok.kind is TokenKind.PLUSPLUS:
            self._advance()
            return ast.IncDec(
                line=tok.pos.line, target=self._parse_unary(), increment=True, prefix=True
            )
        if tok.kind is TokenKind.MINUSMINUS:
            self._advance()
            return ast.IncDec(
                line=tok.pos.line, target=self._parse_unary(), increment=False, prefix=True
            )
        if tok.kind is TokenKind.PLUS:
            self._advance()
            return self._parse_unary()
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self.toks[self.i]
            if tok.kind is TokenKind.LBRACKET:
                self._advance()
                index = self._parse_expr()
                self._expect(TokenKind.RBRACKET)
                expr = ast.Index(line=tok.pos.line, base=expr, index=index)
            elif tok.kind is TokenKind.DOT:
                self._advance()
                fname = self._expect(TokenKind.IDENT)
                expr = ast.FieldAccess(
                    line=tok.pos.line, base=expr, fieldname=fname.text, arrow=False
                )
            elif tok.kind is TokenKind.ARROW:
                self._advance()
                fname = self._expect(TokenKind.IDENT)
                expr = ast.FieldAccess(
                    line=tok.pos.line, base=expr, fieldname=fname.text, arrow=True
                )
            elif tok.kind is TokenKind.PLUSPLUS:
                self._advance()
                expr = ast.IncDec(line=tok.pos.line, target=expr, increment=True, prefix=False)
            elif tok.kind is TokenKind.MINUSMINUS:
                self._advance()
                expr = ast.IncDec(line=tok.pos.line, target=expr, increment=False, prefix=False)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self.toks[self.i]
        if tok.kind is TokenKind.INT_LIT:
            self._advance()
            return ast.IntLit(line=tok.pos.line, value=int(tok.value))  # type: ignore[arg-type]
        if tok.kind is TokenKind.CHAR_LIT:
            self._advance()
            return ast.IntLit(line=tok.pos.line, value=int(tok.value))  # type: ignore[arg-type]
        if tok.kind is TokenKind.FLOAT_LIT:
            self._advance()
            return ast.FloatLit(line=tok.pos.line, value=float(tok.value))  # type: ignore[arg-type]
        if tok.kind is TokenKind.STRING_LIT:
            self._advance()
            return ast.StringLit(line=tok.pos.line, value=str(tok.value))
        if tok.kind is TokenKind.LPAREN:
            # Either a parenthesized expression or a cast "(type) expr".
            if self._peek(1).kind in _TYPE_KEYWORDS:
                self._advance()
                self._parse_base_type()
                while self._accept(TokenKind.STAR):
                    pass
                self._expect(TokenKind.RPAREN)
                # MiniC erases casts: types converge in semantic analysis.
                return self._parse_unary()
            self._advance()
            expr = self._parse_expr()
            self._expect(TokenKind.RPAREN)
            return expr
        if tok.kind is TokenKind.IDENT:
            self._advance()
            if self._at(TokenKind.LPAREN):
                self._advance()
                args: list[ast.Expr] = []
                if not self._at(TokenKind.RPAREN):
                    while True:
                        args.append(self._parse_assignment_expr())
                        if not self._accept(TokenKind.COMMA):
                            break
                self._expect(TokenKind.RPAREN)
                return ast.Call(line=tok.pos.line, callee=tok.text, args=args)
            return ast.Name(line=tok.pos.line, ident=tok.text)
        raise ParseError(f"unexpected token {tok.text or tok.kind.value!r}", tok.pos)


def parse(text: str, filename: str = "<input>") -> ast.Program:
    """Parse MiniC source text into a Program AST."""
    return Parser(SourceFile(text, filename)).parse_program()
