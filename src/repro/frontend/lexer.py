"""MiniC lexer: one compiled master pattern, matched at the current offset.

Line and column positions must be exact, because the HLI line table
(paper Section 2.1) identifies items by source line number — a one-off
error here would silently desynchronize the front-end items from the
back-end memory references.

Each match of :data:`_MASTER` skips a whole run of trivia (whitespace,
``//`` and ``#`` lines, ``/* */`` comments) and then takes one token, so
the scan loop makes no Python-level call per character, and none per
token outside string escapes.  The line number advances by the count of
newlines in the skipped trivia, and the column is the token's offset
from the last newline.  Tokens and positions are immutable tuples built
directly with ``tuple.__new__``.
"""

from __future__ import annotations

import re

from .errors import LexError, SourcePos
from .source import SourceFile
from .tokens import KEYWORDS, Token, TokenKind

#: Spelling -> kind for every keyword and punctuator.  A punctuator's
#: ``TokenKind`` value is its spelling; every other kind's value starts
#: with a letter, apart from EOF's ``"<eof>"``.
_FIXED: dict[str, TokenKind] = {
    **{k.value: k for k in TokenKind if not k.value[0].isalpha() and k is not TokenKind.EOF},
    **KEYWORDS,
}

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", "'": "'", '"': '"'}

#: A string literal between its quotes: no quote, backslash or newline,
#: except as one of the escapes of ``_ESCAPES``.
_STRING_BODY = r"""(?: [^"\\\n] | \\[ntr0\\'"] )*"""

_MASTER = re.compile(
    r"""
    (?: [ \t\r\n]+ | //[^\n]* | \#[^\n]* | /\*.*?\*/ )*     # trivia
    (?:
      (?P<word> [A-Za-z_]\w*                                # ident / keyword
        | << | >> | <= | >= | == | != | && | \|\| | \+= | -= | \*= | /=
        | \+\+ | -- | ->
        | \.(?![0-9]) | /(?!\*)             # '.5' is a number, a lone '/*' an error
        | [-+*%&|^~!<>=?:;,(){}\[\]] )
    | (?P<hex> 0[xX][0-9A-Fa-f]* )
    | (?P<number> (?: [0-9]+ (?: \.(?!\.)[0-9]* )? | \.[0-9]+ )
                  (?: [eE][+-]?[0-9]+ )? [fF]? )
    | (?P<string> " """ + _STRING_BODY + r""" " )
    | (?P<char> ' (?: [^\\'\n] | \\[ntr0\\'"] ) ' )
    | (?P<uword> [^\W\d\x00-\x7f]\w* )   # non-ASCII start: a letter, or a numeric
                                          # such as '²' that starts no token
    | (?P<eof> \Z )
    | (?P<error> . )
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_STRING_BODY_AT = re.compile(_STRING_BODY, re.VERBOSE).match
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _unescape(m: re.Match[str]) -> str:
    return _ESCAPES[m[1]]


class Lexer:
    """Scan a :class:`SourceFile` into a token stream."""

    def __init__(self, source: SourceFile) -> None:
        self.source = source

    def tokens(self) -> list[Token]:
        """Lex the whole file, returning tokens terminated by one EOF token."""
        text = self.source.text
        filename = self.source.filename
        match = _MASTER.match
        count = text.count
        rfind = text.rfind
        fixed = _FIXED
        ident = TokenKind.IDENT
        new = tuple.__new__
        out: list[Token] = []
        append = out.append
        pos = 0  # end of the previous token
        line = 1
        line_start = 0  # offset of the current line's first character
        while True:
            m = match(text, pos)
            group = m.lastgroup
            start, end = m.span(group)
            if start != pos:  # the match skipped trivia first
                newlines = count("\n", pos, start)
                if newlines:
                    line += newlines
                    line_start = rfind("\n", pos, start) + 1
            word = text[start:end]
            pos = end
            where = new(SourcePos, (line, start - line_start + 1, filename))
            if group == "word":
                append(new(Token, (fixed.get(word, ident), word, where, None)))
            elif group == "number":
                if word.isdigit():
                    append(new(Token, (TokenKind.INT_LIT, word, where, int(word))))
                else:
                    value = float(word[:-1] if word[-1] in "fF" else word)
                    append(new(Token, (TokenKind.FLOAT_LIT, word, where, value)))
            elif group == "eof":
                append(new(Token, (TokenKind.EOF, "", where, None)))
                return out
            elif group == "string":
                value = _ESCAPE.sub(_unescape, word[1:-1])
                append(new(Token, (TokenKind.STRING_LIT, f'"{value}"', where, value)))
            elif group == "char":
                ch = word[1] if len(word) == 3 else _ESCAPES[word[2]]
                append(new(Token, (TokenKind.CHAR_LIT, f"'{ch}'", where, ord(ch))))
            elif group == "hex":
                if len(word) == 2:
                    raise LexError("malformed hex literal", where)
                append(new(Token, (TokenKind.INT_LIT, word, where, int(word, 16))))
            elif group == "uword" and word[0].isalpha():
                append(new(Token, (ident, word, where, None)))
            else:
                _raise_at(text, start, where)


def _raise_at(text: str, start: int, where: SourcePos) -> None:
    """Raise the :class:`LexError` for the malformed token at ``start``."""
    c = text[start]
    if text.startswith("/*", start):
        raise LexError("unterminated block comment", where)
    if c == '"':
        # The string pattern failed, so its body stops at a newline, the
        # end of the text, or a backslash that starts no known escape.
        stop = _STRING_BODY_AT(text, start + 1).end()
        if text[stop : stop + 1] != "\\":
            raise LexError("unterminated string literal", where)
        esc_at = stop
    elif c == "'":
        esc_at = start + 1
        if text[esc_at : esc_at + 1] != "\\" or text[esc_at + 1 : esc_at + 2] in _ESCAPES:
            raise LexError("unterminated char literal", where)
    else:
        raise LexError(f"unexpected character {c!r}", where)
    esc = text[esc_at + 1 : esc_at + 2]
    raise LexError(
        f"unknown escape '\\{esc}'", where._replace(col=where.col + esc_at - start)
    )


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """Convenience wrapper: lex ``text`` into a token list (EOF-terminated)."""
    return Lexer(SourceFile(text, filename)).tokens()
