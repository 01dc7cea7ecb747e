"""Diagnostic and error types shared across the front-end.

Every front-end failure is reported through :class:`CompileError` (or a
subclass) carrying the source position, so drivers can render uniform
``file:line:col`` diagnostics regardless of which phase failed.
"""

from __future__ import annotations

from typing import NamedTuple


class SourcePos(NamedTuple):
    """A position in a source file (1-based line and column).

    An immutable tuple, which the lexer builds for every token with one
    ``tuple.__new__`` call.
    """

    line: int
    col: int
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.col}"


class CompileError(Exception):
    """Base class for all front-end errors.

    Parameters
    ----------
    message:
        Human-readable description of the failure.
    pos:
        Source position the error is anchored to, if known.
    """

    def __init__(self, message: str, pos: SourcePos | None = None) -> None:
        self.message = message
        self.pos = pos
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.pos is not None:
            return f"{self.pos}: {self.message}"
        return self.message


class LexError(CompileError):
    """Raised by the lexer on malformed input (bad character, unterminated literal)."""


class ParseError(CompileError):
    """Raised by the parser on a grammar violation."""


class SemanticError(CompileError):
    """Raised by the semantic analyzer (type errors, undeclared names, ...)."""


class LoweringError(CompileError):
    """Raised by the back-end lowering phase on constructs it cannot translate."""
