"""End-to-end compilation driver (the pipeline of paper Figure 3).

``compile_source`` runs the fixed pass sequence of
:mod:`repro.driver.passes` (parse → HLI build → lower → map →
unroll/cse/licm → schedule → lint), with the :class:`CompileOptions`
flags choosing which passes run.  The result object carries every
intermediate artifact so tests, examples, and benchmark harnesses can
inspect any stage.

For cached, batched, or parallel compilation use
:class:`repro.driver.session.CompilationSession`, which reuses the
front-end artifacts (parse → HLI build → lowering) across compiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # avoid load-time cycles with repro.checker / backend.passes
    from ..backend.passes import OptStats
    from ..checker.rules import LintReport
    from ..linker.unit import UnitAnalysis

from ..analysis.builder import FrontEndInfo
from ..backend.ddg import DDGMode, DepStats
from ..backend.mapping import MapStats
from ..backend.rtl import RTLProgram
from ..hli.query import HLIQuery
from ..hli.tables import HLIFile
from ..machine.latencies import r4600_latency
from ..obs import enabled_scope
from ..obs import trace as _trace
from .passes import PassContext, PipelineStats, run_pipeline


@dataclass
class CompileOptions:
    """Knobs for one compilation."""

    #: dependence mode for the scheduler's DDG (paper Figure 5)
    mode: DDGMode = DDGMode.COMBINED
    #: run the basic-block list scheduler
    schedule: bool = True
    #: latency function driving scheduling priorities
    latency: Callable = r4600_latency
    #: run local CSE before scheduling
    cse: bool = False
    #: run loop-invariant code motion before scheduling
    licm: bool = False
    #: unroll innermost counted loops by this factor (1 = off)
    unroll: int = 1
    #: run the ``hli-lint`` soundness auditor after all passes; the
    #: report lands in :attr:`Compilation.lint_report`
    lint: bool = False
    #: enable the :mod:`repro.obs` tracing/metrics subsystem for the
    #: duration of this compile (no-op if it is already enabled)
    trace: bool = False


@dataclass
class Compilation:
    """Everything produced by one compilation."""

    source: str
    filename: str
    hli: Optional[HLIFile] = None
    frontend: Optional[FrontEndInfo] = None
    rtl: Optional[RTLProgram] = None
    queries: dict[str, HLIQuery] = field(default_factory=dict)
    map_stats: dict[str, MapStats] = field(default_factory=dict)
    dep_stats: dict[str, DepStats] = field(default_factory=dict)
    options: Optional[CompileOptions] = None
    #: populated when the ``unroll``/``cse``/``licm`` passes run
    opt_stats: Optional["OptStats"] = None
    #: populated when :attr:`CompileOptions.lint` is set
    lint_report: Optional["LintReport"] = None
    #: what the pipeline actually ran (pass order, query rebuilds)
    pipeline_stats: Optional[PipelineStats] = None
    #: how the cache served this compile: ``"cold"`` (fully compiled),
    #: ``"memory"``/``"disk"`` (whole-file manifest hit from that tier),
    #: or ``"incremental"`` (manifest miss, but at least one function
    #: was served from the per-function tier)
    cache_state: str = "cold"
    #: per-function cache provenance (sessions only): ``"cold"``,
    #: ``"fe:<tier>"`` (front-end entry reused, back end re-ran), or
    #: ``"be:<tier>"`` (finished back-end artifacts spliced in)
    fn_cache_states: dict[str, str] = field(default_factory=dict)
    #: linked cross-module effects for extern functions (whole-program
    #: mode): function name -> :class:`~repro.analysis.refmod.EffectSet`.
    #: Consumed by the ``hli-build`` pass and by the lint reference
    #: rebuild, so both see the same external world.
    external_effects: Optional[dict] = None

    def total_dep_stats(self) -> DepStats:
        total = DepStats()
        for s in self.dep_stats.values():
            total.merge(s)
        return total


def compile_source(
    source: str,
    filename: str = "<input>",
    options: Optional[CompileOptions] = None,
    external_effects: Optional[dict] = None,
    analysis: Optional["UnitAnalysis"] = None,
) -> Compilation:
    """Compile MiniC source through the full HLI pipeline (cold, uncached).

    ``external_effects`` (whole-program mode) maps extern function names
    to linked :class:`~repro.analysis.refmod.EffectSet` summaries; the
    HLI builder uses them instead of the conservative TOP/TOP default.

    ``analysis`` is this very source's link-phase
    :class:`~repro.linker.unit.UnitAnalysis` (whole-program mode): the
    compile reuses its checked AST, symbol table and points-to result
    instead of parsing and running points-to again.  Nothing checks that
    it came from ``source``; passing another unit's analysis is a bug.
    """
    opts = options or CompileOptions()
    with enabled_scope(opts.trace):
        with _trace.span("driver.compile", file=filename, mode=opts.mode.value):
            ctx = PassContext(
                comp=Compilation(
                    source=source,
                    filename=filename,
                    options=opts,
                    external_effects=external_effects,
                ),
                opts=opts,
            )
            if analysis is not None:
                ctx.program, ctx.table = analysis.program, analysis.table
                ctx.pts = analysis.pts
            run_pipeline(ctx)
            return ctx.comp
