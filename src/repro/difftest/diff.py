"""Differential executor: one program, many compilations, one verdict.

The harness runs a single MiniC program through

* the front-end tree-walking interpreter (:func:`repro.frontend.interp.
  interpret`) — the **reference semantics**; and
* compile + RTL execution under every configuration in a matrix of
  :class:`MatrixConfig` points (dependence mode × optimization passes ×
  scheduling),

then checks, in increasing order of subtlety:

1. **semantic equality** — return value and output stream of every
   compiled configuration match the interpreter exactly;
2. **memory equality** — final data memory matches across configurations
   (optimizations may reorder or eliminate *code*, never net stores);
3. **lint cleanliness** — ``hli-lint`` reports no errors on the flagged
   configurations (its oracle replay catches flipped dependence verdicts
   and its reference rebuild catches silent table staleness);
4. **DDG monotonicity** — per compilation, ``combined_yes <= gcc_yes``
   and ``combined_yes <= hli_yes`` (Figure 5: intersecting verdicts can
   only delete edges), and across configurations the base GCC and base
   combined compilations answer the *same* number of dependence tests;
5. **maintenance accounting** — optimizing compilations introduce no new
   *orphan* HLI items (line-table entries referenced by no surviving RTL
   insn) relative to the base compilation of the same mode.  A dropped
   ``delete_item`` call is invisible to semantics and to lint's
   conservative rules, but it leaves exactly this fingerprint.

Any violated check becomes a :class:`Failure`; the per-program verdict
is a :class:`DiffResult`.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Optional

from ..backend.ddg import DDGMode
from ..driver.compile import Compilation, CompileOptions, compile_source
from ..frontend import parse_and_check
from ..frontend.interp import InterpResult, interpret
from ..machine.executor import execute
from ..obs import metrics as _metrics
from ..obs import trace as _trace

__all__ = [
    "MatrixConfig",
    "Failure",
    "DiffResult",
    "build_matrix",
    "run_differential",
]


@dataclass(frozen=True)
class MatrixConfig:
    """One point of the differential configuration matrix."""

    name: str
    mode: DDGMode = DDGMode.COMBINED
    schedule: bool = True
    cse: bool = False
    licm: bool = False
    unroll: int = 1
    #: run ``hli-lint`` over the finished compilation (costly; a subset)
    lint: bool = False

    @property
    def has_passes(self) -> bool:
        return self.cse or self.licm or self.unroll > 1

    def to_options(self) -> CompileOptions:
        return CompileOptions(
            mode=self.mode,
            schedule=self.schedule,
            cse=self.cse,
            licm=self.licm,
            unroll=self.unroll,
        )


#: Pass bundles used to span the matrix: (suffix, cse, licm, unroll).
_PASS_SETS = [
    ("base", False, False, 1),
    ("cse", True, False, 1),
    ("licm", False, True, 1),
    ("unroll", False, False, 2),
    ("opt", True, True, 2),
]


def build_matrix(name: str = "quick") -> list[MatrixConfig]:
    """The named configuration matrix.

    * ``quick`` — 4 configurations: the two base modes, the fully
      optimized combined pipeline, and an unscheduled combined build.
    * ``full``  — all three dependence modes crossed with five pass
      bundles, plus an unscheduled build: 16 configurations.
    """
    if name == "quick":
        return [
            MatrixConfig("gcc-base", mode=DDGMode.GCC),
            MatrixConfig("combined-base", mode=DDGMode.COMBINED, lint=True),
            MatrixConfig(
                "combined-opt",
                mode=DDGMode.COMBINED,
                cse=True,
                licm=True,
                unroll=2,
                lint=True,
            ),
            MatrixConfig("combined-nosched", mode=DDGMode.COMBINED, schedule=False),
        ]
    if name == "full":
        out = []
        for mode in (DDGMode.GCC, DDGMode.HLI, DDGMode.COMBINED):
            for suffix, cse, licm, unroll in _PASS_SETS:
                out.append(
                    MatrixConfig(
                        f"{mode.value}-{suffix}",
                        mode=mode,
                        cse=cse,
                        licm=licm,
                        unroll=unroll,
                        # lint the combined end-points: the clean build and
                        # the maximally transformed one
                        lint=mode is DDGMode.COMBINED and suffix in ("base", "opt"),
                    )
                )
        out.append(MatrixConfig("combined-nosched", mode=DDGMode.COMBINED, schedule=False))
        return out
    raise ValueError(f"unknown matrix '{name}' (quick|full)")


@dataclass(frozen=True)
class Failure:
    """One violated check for one (program, configuration) pair."""

    kind: str  # frontend-error | compile-crash | exec-crash | semantic |
    #          # memory | lint | monotonic | test-count | maintenance
    config: str  # MatrixConfig name, or "<matrix>" for cross-config checks
    detail: str
    seed: Optional[int] = None

    def format(self) -> str:
        tag = f" seed={self.seed}" if self.seed is not None else ""
        return f"[{self.kind}] config={self.config}{tag}: {self.detail}"


@dataclass
class DiffResult:
    """The verdict for one program across the whole matrix."""

    seed: Optional[int] = None
    source: str = ""
    configs_run: int = 0
    checks: int = 0
    failures: list[Failure] = field(default_factory=list)
    #: interpreter reference (None if the front end rejected the program)
    reference: Optional[InterpResult] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, kind: str, config: str, detail: str) -> None:
        self.failures.append(Failure(kind, config, detail, seed=self.seed))
        _metrics.inc("difftest.failures", kind)


def _trim(text: str, limit: int = 400) -> str:
    return text if len(text) <= limit else text[:limit] + "...<trimmed>"


def _fmt_output(res) -> str:
    return f"ret={res.ret!r} output={_trim('|'.join(res.output))!r}"


def _orphan_items(comp: Compilation) -> dict[str, frozenset[int]]:
    """Per unit: line-table item IDs referenced by no surviving RTL insn."""
    out = {}
    for unit, entry in comp.hli.entries.items():
        fn = comp.rtl.functions.get(unit)
        live = {
            insn.hli_item
            for insn in (fn.insns if fn is not None else [])
            if insn.hli_item is not None
        }
        declared = {item_id for item_id, _ty in entry.line_table.all_items()}
        out[unit] = frozenset(declared - live)
    return out


def run_differential(
    source: str,
    seed: Optional[int] = None,
    matrix: Optional[list[MatrixConfig]] = None,
    filename: str = "<fuzz>",
) -> DiffResult:
    """Run one program through the full differential harness."""
    matrix = matrix if matrix is not None else build_matrix("quick")
    result = DiffResult(seed=seed, source=source)
    _metrics.inc("difftest.programs")

    with _trace.span("difftest.run", seed=seed, configs=len(matrix)):
        # -- reference semantics ------------------------------------------
        try:
            program, _table = parse_and_check(source, filename)
            reference = interpret(program)
        except Exception:
            result.add("frontend-error", "<reference>", _trim(traceback.format_exc()))
            return result
        result.reference = reference

        comps: dict[str, Compilation] = {}
        memories: dict[str, dict] = {}

        for mc in matrix:
            with _trace.span("difftest.config", config=mc.name):
                try:
                    comp = compile_source(source, filename, options=mc.to_options())
                except Exception:
                    result.add("compile-crash", mc.name, _trim(traceback.format_exc()))
                    continue
                comps[mc.name] = comp
                result.configs_run += 1

                try:
                    res = execute(comp.rtl, collect_trace=False)
                except Exception:
                    result.add("exec-crash", mc.name, _trim(traceback.format_exc()))
                    continue

                # 1. semantic equality against the interpreter
                result.checks += 1
                if res.ret != reference.ret or res.output != reference.output:
                    result.add(
                        "semantic",
                        mc.name,
                        f"interp {_fmt_output(reference)} != exec {_fmt_output(res)}",
                    )
                memories[mc.name] = res.memory

                # 4. DDG monotonicity within this compilation
                for unit, stats in comp.dep_stats.items():
                    result.checks += 1
                    if (
                        stats.combined_yes > stats.gcc_yes
                        or stats.combined_yes > stats.hli_yes
                    ):
                        result.add(
                            "monotonic",
                            mc.name,
                            f"unit {unit}: combined_yes={stats.combined_yes} exceeds"
                            f" gcc_yes={stats.gcc_yes} or hli_yes={stats.hli_yes}",
                        )

                # 3. lint cleanliness on the flagged configurations
                if mc.lint:
                    from ..checker.lint import lint_compilation

                    result.checks += 1
                    report = lint_compilation(comp)
                    if report.errors:
                        msgs = "; ".join(
                            f"{d.rule.rule_id} {d.unit}:{d.line} {d.message}"
                            for d in report.errors[:5]
                        )
                        result.add("lint", mc.name, _trim(msgs, 600))

        # -- cross-configuration checks -----------------------------------
        # 2. final memory must agree everywhere it was observed
        if len(memories) > 1:
            result.checks += 1
            names = sorted(memories)
            base_name = names[0]
            for other in names[1:]:
                if memories[other] != memories[base_name]:
                    delta = {
                        a: (memories[base_name].get(a), memories[other].get(a))
                        for a in set(memories[base_name]) ^ set(memories[other])
                        | {
                            a
                            for a in set(memories[base_name]) & set(memories[other])
                            if memories[base_name][a] != memories[other][a]
                        }
                    }
                    result.add(
                        "memory",
                        other,
                        f"final memory differs from {base_name}:"
                        f" {_trim(repr(dict(sorted(delta.items())[:8])))}",
                    )

        # 4b. base GCC and base combined must answer the same tests
        gcc_base = next(
            (c for c in comps.values() if c.options.mode is DDGMode.GCC
             and not c.options.cse and not c.options.licm and c.options.unroll == 1
             and c.options.schedule),
            None,
        )
        comb_base = next(
            (c for c in comps.values() if c.options.mode is DDGMode.COMBINED
             and not c.options.cse and not c.options.licm and c.options.unroll == 1
             and c.options.schedule),
            None,
        )
        if gcc_base is not None and comb_base is not None:
            for unit in gcc_base.dep_stats:
                g = gcc_base.dep_stats[unit]
                c = comb_base.dep_stats.get(unit)
                if c is None:
                    continue
                result.checks += 1
                if g.total_tests != c.total_tests:
                    result.add(
                        "test-count",
                        "<matrix>",
                        f"unit {unit}: gcc base ran {g.total_tests} dependence"
                        f" tests, combined base ran {c.total_tests}",
                    )
                result.checks += 1
                if c.combined_yes > g.gcc_yes:
                    result.add(
                        "monotonic",
                        "<matrix>",
                        f"unit {unit}: combined build keeps {c.combined_yes} edges,"
                        f" more than the {g.gcc_yes} GCC-only edges",
                    )

        # 5. maintenance accounting: optimizing builds may not orphan items
        base_orphans: dict[DDGMode, dict[str, frozenset[int]]] = {}
        for mc in matrix:
            comp = comps.get(mc.name)
            if comp is not None and not mc.has_passes and mc.schedule:
                base_orphans.setdefault(mc.mode, _orphan_items(comp))
        for mc in matrix:
            comp = comps.get(mc.name)
            base = base_orphans.get(mc.mode)
            if comp is None or base is None or not mc.has_passes:
                continue
            result.checks += 1
            for unit, orphans in _orphan_items(comp).items():
                new = orphans - base.get(unit, frozenset())
                if new:
                    result.add(
                        "maintenance",
                        mc.name,
                        f"unit {unit}: items {sorted(new)} remain in the line"
                        " table but no RTL insn references them (missed"
                        " delete_item?)",
                    )

    _metrics.inc("difftest.verdict", "ok" if result.ok else "fail")
    return result
