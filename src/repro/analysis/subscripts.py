"""Affine (linear) subscript forms for array dependence analysis.

The front-end dependence tests (paper Section 3.1.2) operate on array
subscripts expressed as linear combinations of scalar symbols::

    a[2*i + j - 1]   ->   {i: 2, j: 1} + (-1)

Subscripts that cannot be put in this form are *non-affine*; references
with non-affine subscripts get conservative (``maybe``) treatment
everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend import ast_nodes as ast
from ..frontend.symbols import Symbol


@dataclass(frozen=True)
class Affine:
    """An affine integer expression ``sum(coeff * symbol) + const``.

    ``terms`` maps symbols (by identity) to non-zero integer coefficients.
    Immutable; arithmetic helpers return new instances.
    """

    terms: tuple[tuple[Symbol, int], ...] = field(default_factory=tuple)
    const: int = 0

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: int) -> "Affine":
        return Affine((), value)

    @staticmethod
    def var(sym: Symbol, coeff: int = 1) -> "Affine":
        if coeff == 0:
            return Affine((), 0)
        return Affine(((sym, coeff),), 0)

    @staticmethod
    def _normalize(terms: dict[Symbol, int], const: int) -> "Affine":
        items = tuple(
            sorted(((s, c) for s, c in terms.items() if c != 0), key=lambda t: t[0].uid)
        )
        return Affine(items, const)

    # -- arithmetic ----------------------------------------------------------

    def _as_dict(self) -> dict[Symbol, int]:
        return dict(self.terms)

    def __add__(self, other: "Affine") -> "Affine":
        if not other.terms:  # self's terms are normalized already
            return Affine(self.terms, self.const + other.const)
        d = self._as_dict()
        for s, c in other.terms:
            d[s] = d.get(s, 0) + c
        return Affine._normalize(d, self.const + other.const)

    def __sub__(self, other: "Affine") -> "Affine":
        if not other.terms:
            return Affine(self.terms, self.const - other.const)
        d = self._as_dict()
        for s, c in other.terms:
            d[s] = d.get(s, 0) - c
        return Affine._normalize(d, self.const - other.const)

    def __neg__(self) -> "Affine":
        return Affine(tuple((s, -c) for s, c in self.terms), -self.const)

    def scale(self, k: int) -> "Affine":
        if k == 0:
            return Affine((), 0)
        return Affine(tuple((s, c * k) for s, c in self.terms), self.const * k)

    # -- queries ---------------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def coeff(self, sym: Symbol) -> int:
        for s, c in self.terms:
            if s is sym:
                return c
        return 0

    def drop(self, sym: Symbol) -> "Affine":
        """The affine form with ``sym``'s term removed."""
        return Affine(tuple((s, c) for s, c in self.terms if s is not sym), self.const)

    def symbols(self) -> list[Symbol]:
        return [s for s, _ in self.terms]

    def evaluate(self, env: dict[Symbol, int]) -> int:
        """Evaluate with concrete symbol values (KeyError if one is missing)."""
        return self.const + sum(c * env[s] for s, c in self.terms)

    def key(self) -> tuple:
        """A hashable canonical key for structural equality."""
        return (tuple((s.uid, c) for s, c in self.terms), self.const)

    def __str__(self) -> str:
        parts: list[str] = []
        for s, c in self.terms:
            if c == 1:
                parts.append(s.name)
            elif c == -1:
                parts.append(f"-{s.name}")
            else:
                parts.append(f"{c}*{s.name}")
        if self.const or not parts:
            parts.append(str(self.const))
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


def affine_of(expr: ast.Expr) -> Affine | None:
    """Extract the affine form of an integer expression, or ``None``.

    Only scalar integer variables and integer literals participate; any
    other construct (array loads, calls, float math, ``*``/``/`` between
    variables) makes the subscript non-affine.
    """
    if isinstance(expr, ast.IntLit):
        return Affine.constant(expr.value)
    if isinstance(expr, ast.Name):
        sym = expr.symbol
        if isinstance(sym, Symbol) and sym.ty.is_integer:
            return Affine.var(sym)
        return None
    if isinstance(expr, ast.Unary) and expr.op is ast.UnaryOp.NEG:
        inner = affine_of(expr.operand) if expr.operand else None
        return None if inner is None else -inner
    if isinstance(expr, ast.Binary):
        if expr.lhs is None or expr.rhs is None:
            return None
        if expr.op is ast.BinOp.ADD:
            lhs, rhs = affine_of(expr.lhs), affine_of(expr.rhs)
            if lhs is not None and rhs is not None:
                return lhs + rhs
            return None
        if expr.op is ast.BinOp.SUB:
            lhs, rhs = affine_of(expr.lhs), affine_of(expr.rhs)
            if lhs is not None and rhs is not None:
                return lhs - rhs
            return None
        if expr.op is ast.BinOp.MUL:
            lhs, rhs = affine_of(expr.lhs), affine_of(expr.rhs)
            if lhs is not None and rhs is not None:
                if lhs.is_constant:
                    return rhs.scale(lhs.const)
                if rhs.is_constant:
                    return lhs.scale(rhs.const)
            return None
        if expr.op is ast.BinOp.SHL:
            lhs, rhs = affine_of(expr.lhs), affine_of(expr.rhs)
            if lhs is not None and rhs is not None and rhs.is_constant and rhs.const >= 0:
                return lhs.scale(1 << rhs.const)
            return None
    return None
