"""Token kinds and the token record produced by the MiniC lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import SourcePos


class TokenKind(enum.Enum):
    """All lexical categories of MiniC."""

    # literals / names
    IDENT = "ident"
    INT_LIT = "int_lit"
    FLOAT_LIT = "float_lit"
    STRING_LIT = "string_lit"
    CHAR_LIT = "char_lit"

    # keywords
    KW_INT = "int"
    KW_FLOAT = "float"
    KW_DOUBLE = "double"
    KW_CHAR = "char"
    KW_VOID = "void"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_FOR = "for"
    KW_WHILE = "while"
    KW_DO = "do"
    KW_RETURN = "return"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_STRUCT = "struct"
    KW_STATIC = "static"
    KW_CONST = "const"
    KW_EXTERN = "extern"

    # punctuation
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    DOT = "."
    ARROW = "->"

    # operators
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    BANG = "!"
    LSHIFT = "<<"
    RSHIFT = ">>"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="
    ANDAND = "&&"
    OROR = "||"
    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PLUSPLUS = "++"
    MINUSMINUS = "--"
    QUESTION = "?"
    COLON = ":"

    EOF = "<eof>"


#: Reserved words, mapping spelling to keyword token kind.
KEYWORDS: dict[str, TokenKind] = {
    "int": TokenKind.KW_INT,
    "float": TokenKind.KW_FLOAT,
    "double": TokenKind.KW_DOUBLE,
    "char": TokenKind.KW_CHAR,
    "void": TokenKind.KW_VOID,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "for": TokenKind.KW_FOR,
    "while": TokenKind.KW_WHILE,
    "do": TokenKind.KW_DO,
    "return": TokenKind.KW_RETURN,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "struct": TokenKind.KW_STRUCT,
    "static": TokenKind.KW_STATIC,
    "const": TokenKind.KW_CONST,
    "extern": TokenKind.KW_EXTERN,
}


class Token(NamedTuple):
    """A single lexed token (an immutable tuple).

    Attributes
    ----------
    kind:
        Lexical category.
    text:
        Exact source spelling.
    pos:
        Position of the first character.
    value:
        Decoded value for literals (``int`` or ``float``), else ``None``.
    """

    kind: TokenKind
    text: str
    pos: SourcePos
    value: int | float | str | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, line={self.pos.line})"
