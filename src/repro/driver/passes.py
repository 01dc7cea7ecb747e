"""The compilation pipeline: one fixed order, the options pick the passes.

Every stage of the paper's Figure 3 pipeline runs here, always in this
order:

* front end: ``parse`` → ``hli-build`` → ``lower``.  ``parse`` is
  skipped when the context already holds the checked program (the
  whole-program driver's phase 1 parsed it);
* back end, per function: ``map``, then ``unroll`` (when
  ``CompileOptions.unroll > 1``), ``cse``, ``licm`` and ``schedule`` as
  the option flags ask;
* the whole-file ``hli-lint`` audit (``lint``) last.

``driver.compile.compile_source`` runs all of it (:func:`run_pipeline`).
A :class:`~repro.driver.session.CompilationSession` serves the front end
from its cache and runs :func:`run_backend` over the functions that no
back-end blob restored.

Query indices
-------------
The passes that mutate the HLI tables leave the per-function
``HLIQuery`` indices (``comp.queries``) stale: ``cse`` and ``licm`` in
every mode, since they maintain the tables whenever they delete
instructions, and ``unroll`` only outside GCC mode, since without a query
it is a no-op.  The indices are rebuilt once, right before the next pass
that reads them: ``schedule``, ``lint`` and, outside GCC mode, the three
optimizers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Iterable, Optional

from ..analysis.builder import build_hli
from ..backend.cse import run_cse
from ..backend.ddg import DDGMode
from ..backend.licm import run_licm
from ..backend.lowering import lower_program
from ..backend.mapping import map_function
from ..backend.passes import OptStats
from ..backend.scheduler import schedule_function
from ..backend.unroll import run_unroll
from ..frontend import parse_and_check
from ..hli.query import HLIQuery
from ..obs import metrics as _metrics
from ..obs import trace as _trace

if TYPE_CHECKING:  # no runtime import: driver.compile imports this module
    from ..analysis.alias import PointsToResult
    from ..frontend import ast_nodes as ast
    from ..frontend.symbols import SymbolTable
    from .compile import Compilation, CompileOptions

__all__ = [
    "FRONTEND_FINGERPRINT",
    "FRONTEND_PASSES",
    "PassContext",
    "PipelineStats",
    "backend_fingerprint",
    "run_backend",
    "run_pipeline",
]


@dataclass
class PipelineStats:
    """What one compile's pipeline actually did (for tests and obs)."""

    #: pass names in execution order
    passes_run: list[str] = field(default_factory=list)
    #: artifact name -> number of automatic rebuilds triggered
    rebuilds: dict[str, int] = field(default_factory=dict)
    #: names of front-end passes skipped because a cache supplied their
    #: artifacts (set by the CompilationSession)
    cached_prefix: tuple[str, ...] = ()
    #: per-function pass name -> the units it actually ran over; on an
    #: incremental recompile this is the invalidated set, not the file
    function_runs: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class PassContext:
    """Everything a pass may read or write while running one pipeline."""

    comp: "Compilation"
    opts: "CompileOptions"
    #: transient front-end state (never cached; only ``hli-build`` and
    #: ``lower`` read it).  Set on entry when the caller already parsed
    #: the source (the whole-program driver's phase 1): ``parse`` is then
    #: skipped and ``hli-build`` reuses ``pts`` instead of re-running
    #: points-to.
    program: Optional["ast.Program"] = None
    table: Optional["SymbolTable"] = None
    pts: Optional["PointsToResult"] = None
    #: units the per-function passes run over; ``None`` means every
    #: function in ``comp.rtl`` (the cold-compile default).  The
    #: incremental session narrows this to the invalidated set.
    active_units: Optional[list[str]] = None
    #: per-function optimization-stats fragments (what the back-end
    #: artifact cache stores, so spliced functions restore their share)
    fn_opt_stats: dict[str, OptStats] = field(default_factory=dict)

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


def _optimize(name: str, ctx: PassContext, unit: str) -> None:
    """Run optimizer ``name`` (``unroll``, ``cse`` or ``licm``) on one
    function, adding its statistics to the file's and the function's.

    GCC mode consumes no HLI, so the optimizers get no query; unroll is
    guided by the region header's trip/step and is then (correctly) a
    no-op.
    """
    comp = ctx.comp
    use_hli = ctx.opts.mode is not DDGMode.GCC
    query = comp.queries.get(unit) if use_hli else None
    entry = comp.hli.entries.get(unit)
    fn = comp.rtl.functions[unit]
    if name == "unroll":
        s = run_unroll(fn, ctx.opts.unroll, query=query, entry=entry)
    else:
        run = run_cse if name == "cse" else run_licm
        s = run(fn, use_hli=use_hli, query=query, entry=entry)
    if comp.opt_stats is None:
        comp.opt_stats = OptStats()
    fragment = ctx.fn_opt_stats.setdefault(unit, OptStats())
    for stats in (comp.opt_stats, fragment):
        getattr(stats, name).merge(s)


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


#: whole-file passes take ``(ctx)``; per-function ones ``(ctx, unit)``
_FILE_PASSES = {"parse": _parse, "hli-build": _build_hli, "lower": _lower, "lint": _lint}
_FUNCTION_PASSES = {
    "map": _map,
    "unroll": partial(_optimize, "unroll"),
    "cse": partial(_optimize, "cse"),
    "licm": partial(_optimize, "licm"),
    "schedule": _schedule,
}

#: the front-end passes, whose output depends only on (source, filename)
FRONTEND_PASSES: tuple[str, ...] = ("parse", "hli-build", "lower")


def _fingerprint(passes: Iterable[str]) -> str:
    """Cache-key part naming a pass sequence (each pass at version 1)."""
    joined = "|".join(f"{name}@1" for name in passes)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


#: Folded into every front-end cache key.  It names the passes, not
#: their code: a change to a front-end pass's output must bump
#: ``session.CACHE_VERSION`` to retire the entries it made stale.
FRONTEND_FINGERPRINT = _fingerprint(FRONTEND_PASSES)


def _backend_passes(opts: "CompileOptions") -> list[str]:
    """The back-end passes ``opts`` turns on, in pipeline order."""
    names = ["map"]
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
    return names


def backend_fingerprint(opts: "CompileOptions") -> str:
    """Cache-key part naming the per-function passes ``opts`` turns on
    (``lint`` leaves no per-function artifact, so it is left out)."""
    return _fingerprint(p for p in _backend_passes(opts) if p in _FUNCTION_PASSES)


def _run(ctx: PassContext, stats: PipelineStats, name: str) -> None:
    """Run one pass (per-function passes over ``ctx.units()``)."""
    if name in _FILE_PASSES:
        with _trace.span("pm.pass", **{"pass": name}):
            _FILE_PASSES[name](ctx)
    else:
        units = ctx.units()
        with _trace.span("pm.pass", **{"pass": name, "units": len(units)}):
            for unit in units:
                _FUNCTION_PASSES[name](ctx, unit)
        stats.function_runs[name] = units
    _metrics.inc("pm.pass", name)
    stats.passes_run.append(name)


def run_backend(ctx: PassContext, stats: PipelineStats) -> None:
    """Run the back-end passes ``ctx.opts`` turns on, rebuilding the query
    indices of ``ctx.units()`` before a pass that reads stale ones."""
    use_hli = ctx.opts.mode is not DDGMode.GCC
    stale = False
    for name in _backend_passes(ctx.opts):
        reads_queries = name in ("schedule", "lint") or (
            use_hli and name in ("unroll", "cse", "licm")
        )
        if stale and reads_queries:
            with _trace.span("pm.rebuild", artifact="queries", before=name):
                comp = ctx.comp
                for unit in ctx.units():
                    entry = comp.hli.entries.get(unit)
                    if entry is not None:
                        comp.queries[unit] = HLIQuery(entry)
            stats.rebuilds["queries"] = stats.rebuilds.get("queries", 0) + 1
            _metrics.inc("pm.rebuild", "queries")
            stale = False
        _run(ctx, stats, name)
        stale = stale or name in ("cse", "licm") or (use_hli and name == "unroll")


def run_pipeline(ctx: PassContext) -> None:
    """Run the whole pipeline for ``ctx`` (a cold, uncached compile)."""
    stats = PipelineStats()
    for name in FRONTEND_PASSES:
        if name != "parse" or ctx.program is None:
            _run(ctx, stats, name)
    run_backend(ctx, stats)
    ctx.comp.pipeline_stats = stats
