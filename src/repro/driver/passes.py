"""The concrete compilation pipeline as pass-manager data.

Every stage of the paper's Figure 3 pipeline — parse, HLI construction,
lowering, HLI import/mapping, the optimization passes, scheduling, and
the ``hli-lint`` audit — is a :class:`repro.backend.pm.Pass` with
declared inputs/outputs/invalidations.  ``driver.compile.compile_source``
is a thin wrapper that assembles a pipeline (``CompileOptions.pipeline``
when given, otherwise :func:`default_pipeline` derived from the option
flags) and hands it to the :class:`~repro.backend.pm.PassManager`.

Artifact names
--------------
``ast``       parsed+checked program (``ctx.program``/``ctx.table``; a
              caller that already holds it sets them, and the ``parse``
              pass is skipped)
``hli``       the HLI file (``comp.hli``) + front-end info (``comp.frontend``)
``rtl``       lowered RTL (``comp.rtl``)
``mapping``   per-insn HLI item annotations + ``comp.map_stats``
``queries``   fresh ``HLIQuery`` indices per unit (``comp.queries``)
``opt_stats`` ``comp.opt_stats``
``dep_stats`` scheduling statistics (``comp.dep_stats``)
``lint``      ``comp.lint_report``

The old ``backend/passes.run_optimizations`` rebuilt every ``HLIQuery``
by hand after the table-mutating passes; here the mutating passes
declare ``invalidates=("queries",)`` and the manager rebuilds lazily,
exactly when a later pass requires fresh indices (the ``"queries"``
rebuilder below).  In GCC mode the optimization passes consume no HLI at
all, so their pipeline instances declare no query requirement and no
invalidation — the mode changes the *data*, not the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from ..analysis.builder import build_hli
from ..backend.ddg import DDGMode
from ..backend.lowering import lower_program
from ..backend.mapping import map_function
from ..backend.pm import Pass, PassManager, PipelineError
from ..backend.scheduler import schedule_function
from ..frontend import parse_and_check
from ..hli.query import HLIQuery
from ..obs import trace as _trace

if TYPE_CHECKING:  # no runtime import: driver.compile imports this module
    from ..analysis.alias import PointsToResult
    from ..backend.passes import OptStats
    from ..frontend import ast_nodes as ast
    from ..frontend.symbols import SymbolTable
    from .compile import Compilation, CompileOptions

__all__ = [
    "PassContext",
    "build_pipeline",
    "default_pipeline",
    "rebuild_queries",
    "run_pipeline",
    "KNOWN_PASSES",
]


@dataclass
class PassContext:
    """Everything a pass may read or write while running one pipeline."""

    comp: "Compilation"
    opts: "CompileOptions"
    #: transient front-end state (never cached; only ``ast`` consumers use
    #: it).  Set on entry when the caller already parsed the source (the
    #: whole-program driver's phase 1): the ``parse`` pass is then skipped
    #: and ``hli-build`` reuses ``pts`` instead of re-running points-to.
    program: Optional["ast.Program"] = None
    table: Optional["SymbolTable"] = None
    pts: Optional["PointsToResult"] = None
    #: units the per-function passes run over; ``None`` means every
    #: function in ``comp.rtl`` (the cold-compile default).  The
    #: incremental session narrows this to the invalidated set.
    active_units: Optional[list[str]] = None
    #: per-function optimization-stats fragments (what the back-end
    #: artifact cache stores, so spliced functions restore their share)
    fn_opt_stats: dict[str, "OptStats"] = field(default_factory=dict)

    def units(self) -> list[str]:
        """The units per-function passes should visit, in program order."""
        if self.active_units is not None:
            return list(self.active_units)
        if self.comp.rtl is None:
            return []
        return list(self.comp.rtl.functions)


# -- pass actions -------------------------------------------------------------


def _parse(ctx: PassContext) -> None:
    ctx.program, ctx.table = parse_and_check(ctx.comp.source, ctx.comp.filename)


def _build_hli(ctx: PassContext) -> None:
    ctx.comp.hli, ctx.comp.frontend = build_hli(
        ctx.program,
        ctx.table,
        external_effects=ctx.comp.external_effects,
        pts=ctx.pts,
    )


def _lower(ctx: PassContext) -> None:
    ctx.comp.rtl = lower_program(ctx.program, ctx.table)


def _map(ctx: PassContext, unit: str) -> None:
    comp = ctx.comp
    entry = comp.hli.entries.get(unit)
    if entry is None:
        return
    with _trace.span("backend.mapping", fn=unit):
        comp.map_stats[unit] = map_function(comp.rtl.functions[unit], entry)
        comp.queries[unit] = HLIQuery(entry)


def _ensure_opt_stats(ctx: PassContext):
    if ctx.comp.opt_stats is None:
        from ..backend.passes import OptStats

        ctx.comp.opt_stats = OptStats()
    return ctx.comp.opt_stats


def _fn_opt_stats(ctx: PassContext, unit: str):
    stats = ctx.fn_opt_stats.get(unit)
    if stats is None:
        from ..backend.passes import OptStats

        stats = ctx.fn_opt_stats[unit] = OptStats()
    return stats


def _unroll(ctx: PassContext, unit: str) -> None:
    from ..backend.unroll import run_unroll

    stats = _ensure_opt_stats(ctx)
    use_hli = ctx.opts.mode is not DDGMode.GCC
    # GCC mode consumes no HLI: unrolling is guided by the region
    # header's trip/step, so without a query it is (correctly) a no-op.
    query = ctx.comp.queries.get(unit) if use_hli else None
    entry = ctx.comp.hli.entries.get(unit)
    s = run_unroll(ctx.comp.rtl.functions[unit], ctx.opts.unroll, query=query, entry=entry)
    stats.unroll.merge(s)
    _fn_opt_stats(ctx, unit).unroll.merge(s)


def _cse(ctx: PassContext, unit: str) -> None:
    from ..backend.cse import run_cse

    stats = _ensure_opt_stats(ctx)
    use_hli = ctx.opts.mode is not DDGMode.GCC
    query = ctx.comp.queries.get(unit) if use_hli else None
    entry = ctx.comp.hli.entries.get(unit)
    s = run_cse(ctx.comp.rtl.functions[unit], use_hli=use_hli, query=query, entry=entry)
    stats.cse.merge(s)
    _fn_opt_stats(ctx, unit).cse.merge(s)


def _licm(ctx: PassContext, unit: str) -> None:
    from ..backend.licm import run_licm

    stats = _ensure_opt_stats(ctx)
    use_hli = ctx.opts.mode is not DDGMode.GCC
    query = ctx.comp.queries.get(unit) if use_hli else None
    entry = ctx.comp.hli.entries.get(unit)
    s = run_licm(ctx.comp.rtl.functions[unit], use_hli=use_hli, query=query, entry=entry)
    stats.licm.merge(s)
    _fn_opt_stats(ctx, unit).licm.merge(s)


def _schedule(ctx: PassContext, unit: str) -> None:
    query = ctx.comp.queries.get(unit)
    sched = schedule_function(
        ctx.comp.rtl.functions[unit],
        mode=ctx.opts.mode,
        query=query,
        latency=ctx.opts.latency,
    )
    ctx.comp.dep_stats[unit] = sched.stats


def _lint(ctx: PassContext) -> None:
    from ..checker.lint import lint_compilation

    ctx.comp.lint_report = lint_compilation(ctx.comp)


def rebuild_queries(ctx: PassContext) -> None:
    """The ``"queries"`` artifact rebuilder: fresh indices per unit.

    Called by the pass manager when a pass that declared
    ``invalidates=("queries",)`` ran and a later pass requires them —
    the centrally enforced version of the manual rebuild the old
    ``run_optimizations`` carried.  Only the *active* units rebuild: on
    an incremental recompile, untouched functions' indices are already
    consistent with their (unmutated) cached tables.
    """
    comp = ctx.comp
    for name in ctx.units():
        entry = comp.hli.entries.get(name)
        if entry is not None:
            comp.queries[name] = HLIQuery(entry)


# -- pass registry ------------------------------------------------------------

# Front-end prefix: depends only on (source, filename); cacheable.
_PARSE = Pass("parse", _parse, provides=("ast",), frontend=True)
_HLI_BUILD = Pass(
    "hli-build", _build_hli, requires=("ast",), provides=("hli",), frontend=True
)
_LOWER = Pass("lower", _lower, requires=("ast",), provides=("rtl",), frontend=True)

_MAP = Pass(
    "map",
    _map,
    requires=("hli", "rtl"),
    provides=("mapping", "queries"),
    per_function=True,
)
_SCHEDULE = Pass(
    "schedule",
    _schedule,
    requires=("rtl", "queries"),
    provides=("dep_stats",),
    per_function=True,
)
_LINT = Pass(
    "lint", _lint, requires=("hli", "rtl", "mapping", "queries"), provides=("lint",)
)


def _opt_pass(
    name: str,
    action: Callable,
    opts: "CompileOptions",
    mutates_without_hli: bool = True,
) -> Pass:
    """Instantiate an optimization pass for the current dependence mode.

    In HLI-consuming modes the pass reads ``queries`` and mutates the
    HLI tables, so it both requires and invalidates the query indices.
    In GCC mode no query is consulted, but cse/licm still *maintain* the
    tables when they delete instructions (maintenance is
    mode-independent), so they keep the invalidation; unroll without a
    query is a guaranteed no-op and declares none.
    """
    use_hli = opts.mode is not DDGMode.GCC
    if use_hli:
        return Pass(
            name,
            action,
            requires=("rtl", "mapping", "queries"),
            provides=("opt_stats",),
            invalidates=("queries",),
            per_function=True,
        )
    return Pass(
        name,
        action,
        requires=("rtl", "mapping"),
        provides=("opt_stats",),
        invalidates=("queries",) if mutates_without_hli else (),
        per_function=True,
    )


#: name -> factory(opts) for every pass the pipeline language knows.
_REGISTRY: dict[str, Callable[["CompileOptions"], Pass]] = {
    "parse": lambda opts: _PARSE,
    "hli-build": lambda opts: _HLI_BUILD,
    "lower": lambda opts: _LOWER,
    "map": lambda opts: _MAP,
    "unroll": lambda opts: _opt_pass(
        "unroll", _unroll, opts, mutates_without_hli=False
    ),
    "cse": lambda opts: _opt_pass("cse", _cse, opts),
    "licm": lambda opts: _opt_pass("licm", _licm, opts),
    "schedule": lambda opts: _SCHEDULE,
    "lint": lambda opts: _LINT,
}

#: Every pass name the pipeline language accepts, in canonical order.
KNOWN_PASSES: tuple[str, ...] = tuple(_REGISTRY)


def default_pipeline(opts: "CompileOptions") -> tuple[str, ...]:
    """Derive the pass sequence from the option flags (pipelines are data)."""
    names = ["parse", "hli-build", "lower", "map"]
    if opts.unroll > 1:
        names.append("unroll")
    if opts.cse:
        names.append("cse")
    if opts.licm:
        names.append("licm")
    if opts.schedule:
        names.append("schedule")
    if opts.lint:
        names.append("lint")
    return tuple(names)


def build_pipeline(opts: "CompileOptions") -> list[Pass]:
    """Resolve ``opts.pipeline`` (or the derived default) to pass objects."""
    names = opts.pipeline if opts.pipeline is not None else default_pipeline(opts)
    passes: list[Pass] = []
    for name in names:
        factory = _REGISTRY.get(name)
        if factory is None:
            raise PipelineError(
                f"unknown pass '{name}'; known passes: {', '.join(KNOWN_PASSES)}"
            )
        passes.append(factory(opts))
    return passes


def make_manager(passes) -> PassManager:
    """A PassManager wired with the driver's rebuilders + units provider."""
    return PassManager(
        passes,
        rebuilders={"queries": rebuild_queries},
        units=lambda ctx: ctx.units(),
    )


def run_pipeline(ctx: PassContext) -> None:
    """Assemble and run the full pipeline for ``ctx`` (cold compile).

    A context that already holds the checked program starts with the
    ``ast`` artifact valid and skips the ``parse`` pass.
    """
    passes = build_pipeline(ctx.opts)
    initial: tuple[str, ...] = ()
    if ctx.program is not None:
        passes = [p for p in passes if p is not _PARSE]
        initial = ("ast",)
    manager = make_manager(passes)
    ctx.comp.pipeline_stats = manager.run(ctx, initial=initial)
