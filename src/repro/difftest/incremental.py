"""Incremental-recompilation oracle: edit, splice, and compare to cold.

The function-grained artifact cache (:mod:`repro.driver.session`) claims
that recompiling an edited file through a warm session is *semantically
indistinguishable* from a cold compile — only faster.  This module turns
that claim into a differential oracle over the random programs of
:mod:`repro.difftest.gen`:

1. generate a base program and compile it through a session (cold);
2. apply a deterministic **line-count-preserving edit** to one helper
   function — either a pure computation change or a REF/MOD-changing
   one (a new global side effect, which must transitively invalidate
   every caller);
3. recompile the edited program through the warm session and cold via
   :func:`~repro.driver.compile.compile_source`;
4. check that

   * the incremental RTL is **alpha-equivalent** to the cold RTL
     (identical modulo register numbers and instruction uids, which are
     process-global counters and legitimately differ);
   * execution of the incremental RTL matches the reference interpreter
     (and therefore the cold compile) on return value and output;
   * scheduling statistics agree function-for-function;
   * ``hli-lint`` is clean over the spliced compilation;
   * the set of functions the back end actually re-ran is **exactly**
     the edited function plus its transitive callers — nothing stale
     (unsoundness), nothing extra (lost incrementality).

Register/uid renumbering (:func:`canonical_rtl`) makes the comparison
deterministic: both compiles are renamed into first-occurrence order
before comparing text.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Optional

from ..backend.rtl import Reg, RTLFunction, RTLProgram
from ..driver.compile import CompileOptions, compile_source
from ..driver.session import CompilationSession
from ..frontend import parse_and_check
from ..frontend.interp import interpret
from ..machine.executor import execute
from .gen import GenConfig, generate

__all__ = [
    "IncrementalResult",
    "canonical_fn",
    "canonical_rtl",
    "edit_helper",
    "run_incremental",
]


# -- alpha-equivalent RTL rendering --------------------------------------------


def _canon_val(v, regmap: dict[int, int]) -> str:
    if isinstance(v, Reg):
        rid = regmap.setdefault(v.rid, len(regmap))
        return f"{'f' if v.is_float else 'r'}{rid}"
    return repr(v)


def canonical_fn(fn: RTLFunction) -> list[str]:
    """Render one function with registers renumbered in first-occurrence
    order — identical output means identical code modulo reg/uid choice."""
    regmap: dict[int, int] = {}
    lines = [
        "params " + ",".join(_canon_val(r, regmap) for r in fn.param_regs),
        "ret " + (_canon_val(fn.ret_reg, regmap) if fn.ret_reg else "-"),
        "frame " + ",".join(f"{n}:{sz}" for n, (_, sz) in sorted(fn.frame.items())),
    ]
    for insn in fn.insns:
        parts = [insn.op.name if hasattr(insn.op, "name") else str(insn.op)]
        if insn.dst is not None:
            parts.append("dst=" + _canon_val(insn.dst, regmap))
        if insn.srcs:
            parts.append("srcs=" + ",".join(_canon_val(s, regmap) for s in insn.srcs))
        if insn.mem is not None:
            m = insn.mem
            parts.append(
                f"mem={_canon_val(m.addr, regmap)}:{m.width}"
                f":{'st' if m.is_store else 'ld'}:{m.known_symbol}"
                f":{m.known_offset}:{m.base_symbol}:{int(m.may_be_aliased)}"
            )
        if insn.label is not None:
            parts.append(f"label={insn.label}")
        if insn.callee is not None:
            parts.append(f"callee={insn.callee}")
        if insn.imm is not None:
            parts.append(f"imm={insn.imm!r}")
        if insn.symbol is not None:
            parts.append(f"sym={insn.symbol}")
        if insn.hli_item is not None:
            parts.append(f"item={insn.hli_item}")
        parts.append(f"line={insn.line}")
        lines.append(" ".join(parts))
    return lines


def canonical_rtl(rtl: RTLProgram) -> dict[str, list[str]]:
    return {name: canonical_fn(fn) for name, fn in rtl.functions.items()}


# -- deterministic edits over generated programs -------------------------------

_RETURN_R = re.compile(r"^(\s*)return r;\s*$")


@dataclass
class Edit:
    """One applied edit: the new source plus what it touched."""

    source: str
    #: the helper function whose body changed
    target: str
    #: True when the edit adds a global store (REF/MOD-changing)
    refmod_changing: bool


def edit_helper(
    source: str, rng: random.Random, refmod_changing: bool = False
) -> Optional[Edit]:
    """Apply a line-count-preserving edit to one random helper ``fk``.

    A plain edit perturbs the helper's return value; a REF/MOD-changing
    edit additionally stores to a global the helper did not previously
    modify on that line.  Both keep every line number in the file
    identical, so only the edited function's fingerprint (and, through
    effect chaining, its callers') may change.
    """
    lines = source.split("\n")
    helpers: list[tuple[int, str]] = []  # (line index of "return r;", name)
    current: Optional[str] = None
    for i, line in enumerate(lines):
        m = re.match(r"^int (f\d+)\(int a, int b\) \{", line)
        if m:
            current = m.group(1)
        elif current is not None and _RETURN_R.match(line):
            helpers.append((i, current))
            current = None
    if not helpers:
        return None
    idx, name = helpers[rng.randrange(len(helpers))]
    pad = _RETURN_R.match(lines[idx]).group(1)
    if refmod_changing:
        scalars = sorted(set(re.findall(r"^int (gs\d+);", source, re.M)))
        if not scalars:
            return None
        g = scalars[rng.randrange(len(scalars))]
        lines[idx] = f"{pad}{g} = {g} ^ a; return r - 1;"
    else:
        lines[idx] = f"{pad}return r + {rng.randrange(1, 7)};"
    return Edit(source="\n".join(lines), target=name, refmod_changing=True
                if refmod_changing else False)


# -- the oracle ----------------------------------------------------------------


@dataclass
class IncrementalResult:
    """Verdict of one edit-recompile check."""

    seed: int
    ok: bool = True
    failures: list[str] = field(default_factory=list)
    #: functions the back end re-ran on the incremental compile
    recompiled: list[str] = field(default_factory=list)
    #: the invalidation set the fingerprints predict
    expected: list[str] = field(default_factory=list)
    target: str = ""

    def fail(self, msg: str) -> None:
        self.ok = False
        self.failures.append(msg)


def _expected_invalidation(source: str, target: str) -> set[str]:
    """Edited function + its transitive callers, from the call graph."""
    from ..analysis.alias import analyze_points_to
    from ..analysis.refmod import analyze_refmod
    from ..driver.incremental import function_keys, transitive_callers

    program, table = parse_and_check(source, "inc.c")
    pts = analyze_points_to(program, table)
    refmod = analyze_refmod(program, table, pts)
    keys = function_keys(source, program, table, pts, refmod)
    return {target} | transitive_callers(keys, {target})


def run_incremental(
    seed: int,
    config: Optional[GenConfig] = None,
    options: Optional[CompileOptions] = None,
    cache_dir=None,
    refmod_changing: bool = False,
) -> IncrementalResult:
    """Generate, edit, recompile warm, and compare against cold."""
    res = IncrementalResult(seed=seed)
    rng = random.Random(seed * 2654435761 % 2**32)
    base = generate(seed, config)
    edit = edit_helper(base, rng, refmod_changing=refmod_changing)
    if edit is None:
        return res  # vacuously ok: nothing editable in this program
    res.target = edit.target
    opts = options or CompileOptions(cse=True, licm=True, lint=True)

    session = CompilationSession(cache_dir=cache_dir)
    session.compile(base, "inc.c", opts)
    inc = session.compile(edit.source, "inc.c", opts)
    cold = compile_source(edit.source, "inc.c", opts)

    # 1. alpha-equivalent RTL
    canon_inc, canon_cold = canonical_rtl(inc.rtl), canonical_rtl(cold.rtl)
    if canon_inc != canon_cold:
        diverged = sorted(
            n for n in canon_cold if canon_inc.get(n) != canon_cold[n]
        )
        res.fail(f"incremental RTL diverges from cold in {diverged}")

    # 2. semantics vs the reference interpreter
    program, _ = parse_and_check(edit.source, "inc.c")
    ref = interpret(program)
    got = execute(inc.rtl, collect_trace=False)
    if got.ret != ref.ret or list(got.output) != list(ref.output):
        res.fail(
            f"incremental execution diverges from interpreter: "
            f"ret {got.ret} vs {ref.ret}"
        )

    # 3. scheduling statistics agree
    if {n: vars(s) for n, s in inc.dep_stats.items()} != {
        n: vars(s) for n, s in cold.dep_stats.items()
    }:
        res.fail("dep stats diverge between incremental and cold")

    # 4. lint is clean over the spliced compilation
    if opts.lint and inc.lint_report is not None and inc.lint_report.findings:
        res.fail(f"hli-lint over spliced compilation: {inc.lint_report.findings}")

    # 5. exact invalidation set
    stats = inc.pipeline_stats
    ran: set[str] = set()
    if stats is not None:
        for units in stats.function_runs.values():
            ran |= set(units)
    expected = _expected_invalidation(edit.source, edit.target)
    res.recompiled = sorted(ran)
    res.expected = sorted(expected)
    if ran != expected:
        stale = expected - ran
        extra = ran - expected
        if stale:
            res.fail(f"stale functions never recompiled: {sorted(stale)}")
        if extra:
            res.fail(f"unnecessary recompilation of {sorted(extra)}")
    survivors = set(inc.rtl.functions) - expected
    if survivors and inc.cache_state != "incremental":
        # some functions should have been served from the cache
        res.fail(f"unexpected cache state {inc.cache_state!r}")
    return res
