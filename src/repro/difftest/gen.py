"""Well-typed random MiniC program generator for differential fuzzing.

Extends the :mod:`repro.workloads.generators` family (which produces
stencils, reductions, and small masked-subscript programs) with the
constructs the HLI analyses actually reason about: counted loops with
*affine* subscripts (``a[2*i - 1]``), non-affine masked subscripts,
pointer walks, struct field accesses, helper-function calls with global
side effects, and guarded integer division — sized by a
:class:`GenConfig` knob set.

Every generated program is, by construction:

* **well-typed** — it passes ``parse_and_check`` unchanged;
* **terminating** — only counted ``for`` loops and down-counted
  ``do``/``while`` loops; no recursion; helper calls form a DAG of
  depth 1;
* **fault-free** — every array subscript is provably in bounds (affine
  bounds are solved at generation time, non-affine subscripts are
  masked), every pointer dereference stays inside its array, and every
  divisor is forced into ``1..8``;
* **fully observable** — ``main`` ends with a checksum loop that folds
  *every* array element plus all scalars and struct fields into the
  return value, so any memory divergence between two compilations is
  visible in the observable result;
* **deterministic** — all randomness flows through one explicit
  :class:`random.Random`; the same ``(seed, config)`` pair always
  yields the same source text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["GenConfig", "ProgramGen", "generate", "generate_units"]


@dataclass(frozen=True)
class GenConfig:
    """Shape knobs for one generated program."""

    #: number of global int arrays (``ga0``, ``ga1``, ...)
    arrays: int = 3
    #: elements per array; must be a power of two (masked subscripts)
    array_size: int = 32
    #: number of global int scalars (``gs0``, ...)
    scalars: int = 3
    #: number of helper functions ``f0(a, b)`` callable from main
    functions: int = 2
    #: top-level statements in ``main`` (before the checksum epilogue)
    max_stmts: int = 10
    #: maximum statement nesting depth (loops / conditionals)
    max_depth: int = 3
    #: maximum expression tree depth
    max_expr_depth: int = 2
    #: emit pointer declarations, walks, and dereferences
    pointers: bool = True
    #: emit a global struct and field accesses
    structs: bool = True
    #: emit calls to the helper functions
    calls: bool = True
    #: emit global doubles and float arithmetic (+ - * and compares)
    floats: bool = False
    #: emit printf statements (adds output-stream observability)
    prints: bool = True
    #: let helper ``f_k`` chain-call ``f_{k+1}`` even in single-unit
    #: programs (always a DAG, so termination holds); this is what the
    #: deep-call-graph benchmark profile dials up
    chain_calls: bool = False

    def __post_init__(self) -> None:
        if self.array_size & (self.array_size - 1) or self.array_size < 8:
            raise ValueError("array_size must be a power of two >= 8")
        if self.arrays < 1:
            raise ValueError("need at least one array")

    @staticmethod
    def small() -> "GenConfig":
        return GenConfig(
            arrays=2, array_size=16, scalars=2, functions=1,
            max_stmts=6, max_depth=2, structs=False, floats=False,
        )

    @staticmethod
    def medium() -> "GenConfig":
        return GenConfig()

    @staticmethod
    def large() -> "GenConfig":
        return GenConfig(
            arrays=4, array_size=64, scalars=4, functions=3,
            max_stmts=16, max_depth=3, max_expr_depth=3, floats=True,
        )

    @staticmethod
    def preset(name: str) -> "GenConfig":
        try:
            return {
                "small": GenConfig.small,
                "medium": GenConfig.medium,
                "large": GenConfig.large,
            }[name]()
        except KeyError:
            raise ValueError(f"unknown GenConfig preset '{name}'") from None


#: Loop-index variables by nesting depth (never assignment targets).
_IDX = ["i0", "i1", "i2", "i3"]
#: Down-counted do/while counters by nesting depth.
_DW = ["j0", "j1", "j2", "j3"]
#: Scratch locals in main.
_LOCALS = ["t0", "t1", "t2", "t3"]

_INT_OPS = ["+", "-", "*", "&", "|", "^"]
_CMP_OPS = ["<", ">", "<=", ">=", "==", "!="]
_ASSIGN_OPS = ["=", "=", "=", "+=", "-=", "*="]
_FLOAT_CONSTS = ["0.5", "1.5", "0.25", "2.0", "0.125", "1.0"]


class ProgramGen:
    """One generator instance; :meth:`build` renders the program text."""

    def __init__(self, rng: random.Random, config: Optional[GenConfig] = None) -> None:
        self.rng = rng
        self.cfg = config if config is not None else GenConfig()
        self.size = self.cfg.array_size
        self.mask = self.size - 1
        self.arrays = [f"ga{k}" for k in range(self.cfg.arrays)]
        self.scalars = [f"gs{k}" for k in range(self.cfg.scalars)]
        self.floats = [f"gd{k}" for k in range(2)] if self.cfg.floats else []
        self._print_seq = 0
        #: inside a helper body only params + globals are in scope
        self._in_helper = False

    # -- expressions -------------------------------------------------------

    def _literal(self) -> str:
        return str(self.rng.randint(-9, 9))

    def _int_atom(self, depth: int, idx_vars: list[str]) -> str:
        roll = self.rng.random()
        if roll < 0.25:
            return self._literal()
        if roll < 0.40 and idx_vars:
            return self.rng.choice(idx_vars)
        if roll < 0.60:
            pool = self.scalars if self._in_helper else self.scalars + _LOCALS
            return self.rng.choice(pool)
        if roll < 0.68 and self.cfg.structs:
            return self.rng.choice(["gr.fa", "gr.fb"])
        if roll < 0.74 and self.cfg.pointers:
            return "(*gp)"
        arr = self.rng.choice(self.arrays)
        return f"{arr}[({self._int_expr(depth + 1, idx_vars)}) & {self.mask}]"

    def _int_expr(self, depth: int, idx_vars: list[str]) -> str:
        if depth >= self.cfg.max_expr_depth:
            return self._int_atom(depth, idx_vars)
        roll = self.rng.random()
        a = self._int_expr(depth + 1, idx_vars)
        b = self._int_expr(depth + 1, idx_vars)
        if roll < 0.06:
            # guarded division / modulo: divisor forced into 1..8
            op = self.rng.choice(["/", "%"])
            return f"({a} {op} (({b} & 7) + 1))"
        if roll < 0.12:
            op = self.rng.choice(["<<", ">>"])
            return f"({a} {op} ({b} & 3))"
        if roll < 0.18:
            return f"({a} {self.rng.choice(_CMP_OPS)} {b})"
        if roll < 0.24:
            c = self._cond(idx_vars)
            return f"(({c}) ? {a} : {b})"
        return f"({a} {self.rng.choice(_INT_OPS)} {b})"

    def _cond(self, idx_vars: list[str]) -> str:
        a = self._int_atom(1, idx_vars)
        b = self._int_atom(1, idx_vars)
        base = f"{a} {self.rng.choice(_CMP_OPS)} {b}"
        if self.rng.random() < 0.25:
            c = self._int_atom(1, idx_vars)
            d = self._int_atom(1, idx_vars)
            glue = self.rng.choice(["&&", "||"])
            return f"{base} {glue} {c} {self.rng.choice(_CMP_OPS)} {d}"
        return base

    # -- statement kinds ---------------------------------------------------

    def _stmt_scalar(self, pad: str, idx_vars: list[str]) -> list[str]:
        target = self.rng.choice(self.scalars + _LOCALS)
        op = self.rng.choice(_ASSIGN_OPS)
        return [f"{pad}{target} {op} {self._int_expr(0, idx_vars)};"]

    def _stmt_masked_store(self, pad: str, idx_vars: list[str]) -> list[str]:
        arr = self.rng.choice(self.arrays)
        sub = f"({self._int_expr(1, idx_vars)}) & {self.mask}"
        return [f"{pad}{arr}[{sub}] = {self._int_expr(0, idx_vars)};"]

    def _stmt_cse_bait(self, pad: str, idx_vars: list[str]) -> list[str]:
        """Repeated same-address loads (and a store-forward) in one block:
        the CSE pass must eliminate some of these and, with it, exercise
        the ``delete_item`` maintenance path the fuzzer audits."""
        arr = self.rng.choice(self.arrays)
        c = self.rng.randint(0, self.size - 1)
        t = self.rng.choice(_LOCALS)
        out = [f"{pad}{t} = {arr}[{c}] + {arr}[{c}];"]
        if self.rng.random() < 0.5:
            c2 = self.rng.randint(0, self.size - 1)
            out.append(f"{pad}{arr}[{c2}] = {t} + 1;")
            out.append(f"{pad}{t} = {arr}[{c2}] * 3 + {arr}[{c2}];")
        return out

    def _affine_accesses(
        self, n: int
    ) -> tuple[int, list[tuple[str, int, int]], int, int]:
        """Pick a scale plus ``n`` (array, scale, shift) accesses and solve
        the loop bounds so every subscript ``scale*i + shift`` is in
        ``[0, size)`` for all ``i`` in ``[lo, hi)``."""
        scale = self.rng.choice([1, 1, 1, 2])
        accesses = []
        lo, hi = 0, self.size
        for _ in range(n):
            arr = self.rng.choice(self.arrays)
            shift = self.rng.randint(-2, 2)
            accesses.append((arr, scale, shift))
            # 0 <= scale*i + shift  =>  i >= ceil(-shift / scale)
            lo = max(lo, -(-(-shift) // scale) if shift < 0 else 0)
            # scale*i + shift < size  =>  i <= (size - 1 - shift) / scale
            hi = min(hi, (self.size - 1 - shift) // scale + 1)
        return scale, accesses, lo, hi

    @staticmethod
    def _affine_sub(var: str, scale: int, shift: int) -> str:
        term = var if scale == 1 else f"{scale} * {var}"
        if shift > 0:
            return f"{term} + {shift}"
        if shift < 0:
            return f"{term} - {-shift}"
        return term

    def _stmt_affine_loop(self, depth: int, idx_vars: list[str]) -> list[str]:
        pad = "    " * (depth + 1)
        var = _IDX[depth]
        n = self.rng.randint(2, 3)
        scale, accesses, lo, hi = self._affine_accesses(n)
        if lo >= hi:
            return self._stmt_scalar(pad, idx_vars)
        inner = idx_vars + [var]
        ipad = pad + "    "
        warr, wscale, wshift = accesses[0]
        body = []
        reads = [
            f"{a}[{self._affine_sub(var, s, sh)}]" for a, s, sh in accesses[1:]
        ]
        rhs = " + ".join(reads) if reads else self._int_expr(1, inner)
        body.append(f"{ipad}{warr}[{self._affine_sub(var, wscale, wshift)}] = {rhs};")
        if self.rng.random() < 0.5:
            body.extend(self._stmt_scalar(ipad, inner))
        return [f"{pad}for ({var} = {lo}; {var} < {hi}; {var}++) {{"] + body + [
            f"{pad}}}"
        ]

    def _stmt_counted_loop(self, depth: int, idx_vars: list[str]) -> list[str]:
        pad = "    " * (depth + 1)
        var = _IDX[depth]
        trip = self.rng.randint(2, 6)
        inner = idx_vars + [var]
        out = [f"{pad}for ({var} = 0; {var} < {trip}; {var}++) {{"]
        for _ in range(self.rng.randint(1, 3)):
            out.extend(self._stmt(depth + 1, inner, in_loop=True))
        out.append(f"{pad}}}")
        return out

    def _stmt_do_while(self, depth: int, idx_vars: list[str]) -> list[str]:
        pad = "    " * (depth + 1)
        var = _DW[depth]
        trip = self.rng.randint(2, 5)
        ipad = pad + "    "
        # The decrement comes FIRST: a generated `continue` in the body
        # jumps straight to the condition, and a trailing decrement would
        # be skipped, making the loop infinite.
        out = [f"{pad}{var} = {trip};", f"{pad}do {{"]
        out.append(f"{ipad}{var} = {var} - 1;")
        out.extend(self._stmt(depth + 1, idx_vars, in_loop=True))
        out.append(f"{pad}}} while ({var} > 0);")
        return out

    def _stmt_if(self, depth: int, idx_vars: list[str], in_loop: bool) -> list[str]:
        pad = "    " * (depth + 1)
        out = [f"{pad}if ({self._cond(idx_vars)}) {{"]
        out.extend(self._stmt(depth + 1, idx_vars, in_loop=in_loop))
        out.append(f"{pad}}}")
        if self.rng.random() < 0.45:
            out.append(f"{pad}else {{")
            out.extend(self._stmt(depth + 1, idx_vars, in_loop=in_loop))
            out.append(f"{pad}}}")
        return out

    def _stmt_pointer_walk(self, depth: int, idx_vars: list[str]) -> list[str]:
        """A bounded pointer walk; ``gp`` is re-parked on the array base
        afterwards so later dereferences stay in bounds."""
        pad = "    " * (depth + 1)
        var = _IDX[depth]
        arr = self.rng.choice(self.arrays)
        start = self.rng.randint(0, self.size // 2)
        trip = self.rng.randint(2, self.size - start)
        ipad = pad + "    "
        if self.rng.random() < 0.5:
            body = f"{ipad}*gp = *gp + {self._int_atom(1, idx_vars + [var])};"
        else:
            t = self.rng.choice(_LOCALS)
            body = f"{ipad}{t} = {t} + *gp;"
        return [
            f"{pad}gp = {arr} + {start};" if start else f"{pad}gp = {arr};",
            f"{pad}for ({var} = 0; {var} < {trip}; {var}++) {{",
            body,
            f"{ipad}gp++;",
            f"{pad}}}",
            f"{pad}gp = {arr};",
        ]

    def _stmt_pointer_simple(self, pad: str, idx_vars: list[str]) -> list[str]:
        arr = self.rng.choice(self.arrays)
        k = self.rng.randint(0, self.size - 1)
        t = self.rng.choice(_LOCALS)
        if self.rng.random() < 0.5:
            return [f"{pad}gp = &{arr}[{k}];", f"{pad}*gp = {self._int_expr(1, idx_vars)};"]
        return [f"{pad}gp = &{arr}[{k}];", f"{pad}{t} = *gp + {self._int_atom(1, idx_vars)};"]

    def _stmt_struct(self, pad: str, idx_vars: list[str]) -> list[str]:
        field = self.rng.choice(["gr.fa", "gr.fb"])
        if self.rng.random() < 0.6:
            return [f"{pad}{field} = {self._int_expr(0, idx_vars)};"]
        t = self.rng.choice(_LOCALS)
        return [f"{pad}{t} = gr.fa {self.rng.choice(_INT_OPS)} gr.fb;"]

    def _stmt_call(self, pad: str, idx_vars: list[str]) -> list[str]:
        fn = f"f{self.rng.randrange(self.cfg.functions)}"
        t = self.rng.choice(_LOCALS)
        a = self._int_atom(1, idx_vars)
        b = self._int_atom(1, idx_vars)
        return [f"{pad}{t} = {fn}({a}, {b});"]

    def _stmt_float(self, pad: str, idx_vars: list[str]) -> list[str]:
        d = self.rng.choice(self.floats)
        roll = self.rng.random()
        if roll < 0.4:
            other = self.rng.choice(self.floats)
            c = self.rng.choice(_FLOAT_CONSTS)
            op = self.rng.choice(["+", "-", "*"])
            return [f"{pad}{d} = {other} {op} {c};"]
        if roll < 0.7:
            return [f"{pad}{d} = {d} * 0.5 + {self._int_atom(1, idx_vars)};"]
        t = self.rng.choice(_LOCALS)
        return [f"{pad}{t} = ({d} > {self.rng.choice(self.floats)}) + {t};"]

    def _stmt_print(self, pad: str, idx_vars: list[str]) -> list[str]:
        self._print_seq += 1
        return [
            f'{pad}printf("p{self._print_seq}=%d\\n", {self._int_expr(1, idx_vars)});'
        ]

    def _stmt_loop_escape(self, pad: str, idx_vars: list[str]) -> list[str]:
        kw = self.rng.choice(["break", "continue"])
        return [f"{pad}if ({self._cond(idx_vars)}) {kw};"]

    # -- statement dispatch ------------------------------------------------

    def _stmt(self, depth: int, idx_vars: list[str], in_loop: bool = False) -> list[str]:
        pad = "    " * (depth + 1)
        cfg = self.cfg
        roll = self.rng.random()
        deeper = depth < cfg.max_depth and depth < len(_IDX) - 1
        if roll < 0.18:
            return self._stmt_scalar(pad, idx_vars)
        if roll < 0.30:
            return self._stmt_masked_store(pad, idx_vars)
        if roll < 0.36:
            return self._stmt_cse_bait(pad, idx_vars)
        if roll < 0.48 and deeper:
            return self._stmt_affine_loop(depth, idx_vars)
        if roll < 0.56 and deeper:
            return self._stmt_counted_loop(depth, idx_vars)
        if roll < 0.62 and deeper:
            return self._stmt_if(depth, idx_vars, in_loop)
        if roll < 0.66 and deeper and depth < len(_DW):
            return self._stmt_do_while(depth, idx_vars)
        if roll < 0.72 and cfg.pointers and deeper:
            return self._stmt_pointer_walk(depth, idx_vars)
        if roll < 0.76 and cfg.pointers:
            return self._stmt_pointer_simple(pad, idx_vars)
        if roll < 0.82 and cfg.structs:
            return self._stmt_struct(pad, idx_vars)
        if roll < 0.88 and cfg.calls and cfg.functions > 0:
            return self._stmt_call(pad, idx_vars)
        if roll < 0.91 and cfg.floats:
            return self._stmt_float(pad, idx_vars)
        if roll < 0.94 and cfg.prints:
            return self._stmt_print(pad, idx_vars)
        if roll < 0.97 and in_loop:
            return self._stmt_loop_escape(pad, idx_vars)
        return self._stmt_scalar(pad, idx_vars)

    # -- helper functions --------------------------------------------------

    def _helper(self, k: int, chain: bool = False) -> str:
        body = [f"    int r;"]
        self._in_helper = True
        expr = self._int_expr(0, ["a", "b"])
        self._in_helper = False
        body.append(f"    r = {expr};")
        if self.scalars and self.rng.random() < 0.7:
            # global side effect: makes call REF/MOD summaries non-trivial
            g = self.rng.choice(self.scalars)
            body.append(f"    {g} = {g} + a;")
        if self.rng.random() < 0.4:
            arr = self.rng.choice(self.arrays)
            body.append(f"    r = r + {arr}[(b) & {self.mask}];")
        if chain and k + 1 < self.cfg.functions and self.rng.random() < 0.6:
            # cross-unit call chain: f_k -> f_{k+1} (still a DAG, so
            # termination holds; feeds the linker's SCC fixpoint)
            body.append(f"    r = r + f{k + 1}(b, a);")
        body.append(f"    return r;")
        return f"int f{k}(int a, int b) {{\n" + "\n".join(body) + "\n}\n"

    # -- top level ---------------------------------------------------------

    def _global_defs(self) -> list[str]:
        """Defining declarations for every global (one unit owns these)."""
        cfg = self.cfg
        parts: list[str] = []
        if cfg.structs:
            parts.append("struct rec { int fa; int fb; };")
            parts.append("struct rec gr;")
        for a in self.arrays:
            parts.append(f"int {a}[{self.size}];")
        for s in self.scalars:
            parts.append(f"int {s};")
        for d in self.floats:
            parts.append(f"double {d};")
        if cfg.pointers:
            parts.append("int *gp;")
        return parts

    def _global_externs(self) -> list[str]:
        """Extern declarations mirroring :meth:`_global_defs`."""
        cfg = self.cfg
        parts: list[str] = []
        if cfg.structs:
            parts.append("struct rec { int fa; int fb; };")
            parts.append("extern struct rec gr;")
        for a in self.arrays:
            parts.append(f"extern int {a}[{self.size}];")
        for s in self.scalars:
            parts.append(f"extern int {s};")
        for d in self.floats:
            parts.append(f"extern double {d};")
        if cfg.pointers:
            parts.append("extern int *gp;")
        return parts

    @staticmethod
    def _proto(k: int) -> str:
        return f"extern int f{k}(int a, int b);"

    def build(self) -> str:
        cfg = self.cfg
        parts: list[str] = self._global_defs()
        parts.append("")
        for k in range(cfg.functions if cfg.calls else 0):
            parts.append(self._helper(k, chain=cfg.chain_calls))
        parts.append(self._main_text())
        return "\n".join(parts) + "\n"

    def build_units(self, n_units: int) -> list[tuple[str, str]]:
        """Render the program split across ``n_units`` translation units.

        Unit 0 (``u0.c``) owns every global definition and ``main``;
        helper functions are distributed round-robin over the remaining
        units, each of which sees the globals through extern declarations
        and the other units' helpers through extern prototypes.  Helpers
        may chain-call the next helper, so calls cross unit boundaries in
        both directions.  Deterministic for a fixed ``(seed, config,
        n_units)``.
        """
        cfg = self.cfg
        n_helpers = cfg.functions if cfg.calls else 0
        n_units = max(2, min(n_units, 1 + n_helpers))
        if n_helpers == 0:
            return [("u0.c", self.build())]
        helpers = [self._helper(k, chain=True) for k in range(n_helpers)]
        main_text = self._main_text()
        owner = {k: 1 + (k % (n_units - 1)) for k in range(n_helpers)}
        units: list[tuple[str, str]] = []
        for u in range(n_units):
            parts: list[str] = []
            if u == 0:
                parts.extend(self._global_defs())
                parts.append("")
                parts.extend(self._proto(k) for k in range(n_helpers))
                parts.append("")
                parts.append(main_text)
            else:
                parts.extend(self._global_externs())
                parts.append("")
                parts.extend(
                    self._proto(k) for k in range(n_helpers) if owner[k] != u
                )
                parts.append("")
                parts.extend(h for k, h in enumerate(helpers) if owner[k] == u)
            units.append((f"u{u}.c", "\n".join(parts) + "\n"))
        return units

    def _main_text(self) -> str:
        cfg = self.cfg
        main: list[str] = ["int main() {"]
        main.append(f"    int {', '.join(_IDX)};")
        main.append(f"    int {', '.join(_DW)};")
        main.append(f"    int {', '.join(_LOCALS)};")
        main.append("    int chk;")
        for k, t in enumerate(_LOCALS):
            main.append(f"    {t} = {k + 1};")
        for v in _DW:
            main.append(f"    {v} = 0;")
        # deterministic array / global initialization
        main.append(f"    for (i0 = 0; i0 < {self.size}; i0++) {{")
        for k, a in enumerate(self.arrays):
            main.append(f"        {a}[i0] = i0 * {2 * k + 3} - {k};")
        main.append("    }")
        for k, s in enumerate(self.scalars):
            main.append(f"    {s} = {k * 7 + 1};")
        for k, d in enumerate(self.floats):
            main.append(f"    {d} = {k}.5;")
        if cfg.structs:
            main.append("    gr.fa = 11; gr.fb = -4;")
        if cfg.pointers:
            main.append(f"    gp = {self.arrays[0]};")
        # the random body
        for _ in range(self.rng.randint(3, cfg.max_stmts)):
            main.extend(self._stmt(0, []))
        # checksum epilogue: fold every observable location into `chk`
        main.append("    chk = 0;")
        main.append(f"    for (i0 = 0; i0 < {self.size}; i0++) {{")
        for k, a in enumerate(self.arrays):
            main.append(f"        chk = chk * 31 + {a}[i0];")
        main.append("    }")
        for s in self.scalars:
            main.append(f"    chk = chk * 31 + {s};")
        for t in _LOCALS:
            main.append(f"    chk = chk * 31 + {t};")
        if cfg.structs:
            main.append("    chk = chk * 31 + gr.fa + gr.fb;")
        for d in self.floats:
            main.append(f"    chk = chk * 31 + ({d} > 0.0) - ({d} < -1.0);")
        if cfg.prints:
            main.append('    printf("chk=%d\\n", chk);')
        main.append("    return chk & 65535;")
        main.append("}")
        return "\n".join(main)


def generate(
    seed: int,
    config: Optional[GenConfig] = None,
    rng: Optional[random.Random] = None,
) -> str:
    """Generate one deterministic random MiniC program."""
    return ProgramGen(rng if rng is not None else random.Random(seed), config).build()


def generate_units(
    seed: int,
    config: Optional[GenConfig] = None,
    n_units: int = 3,
    rng: Optional[random.Random] = None,
) -> list[tuple[str, str]]:
    """Generate one deterministic random *multi-file* MiniC program.

    Returns ``(filename, source)`` pairs suitable for
    :func:`repro.driver.wpa.compile_whole_program`.
    """
    gen = ProgramGen(rng if rng is not None else random.Random(seed), config)
    return gen.build_units(n_units)
