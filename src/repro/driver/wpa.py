"""Whole-program compilation: per-unit pipelines around one link step.

``compile_whole_program`` is the driver for multi-file MiniC programs.
It runs in two phases around :func:`repro.linker.link_units`:

1. **Analyze + link.**  Every unit is parsed, checked, and summarized
   (:func:`repro.linker.unit.analyze_unit`) in this process, one after
   another — LTO's serial whole-program analysis; the linker reconciles
   the global symbols and runs the bottom-up SCC fixpoint over the
   cross-unit call graph.
2. **Compile.**  Every unit is compiled through the ordinary per-unit
   pipeline, but with ``external_effects`` — the linked summaries of the
   extern functions it calls, translated back into its own object
   vocabulary by :mod:`repro.linker.adapter` — so the HLI builder,
   queries, DDG, and lint all see precise cross-module REF/MOD facts
   instead of the conservative TOP/TOP default.  Every unit's compile
   takes over its phase-1 checked AST, symbol table and points-to
   result, so it is parsed and points-to-analyzed once.  With
   ``jobs>1`` and a partition mode this process still compiles the
   heaviest partition itself, and forked children compile the rest on
   the same analyses, inherited at the fork — when that pays: a
   ``balanced`` plan whose other partitions are light compiles here.

The per-unit RTL programs are then merged into one executable image
(:func:`repro.linker.image.link_image`).  When a
:class:`~repro.driver.session.CompilationSession` is supplied, phase 2
compiles through it with an ``extra_salt`` derived from the link
fingerprint, so per-file and whole-program artifacts never collide and a
relink retires stale cache entries automatically.

After phase 2 the driver snapshots each summarized function's HLI
generation (``summary_generations``).  The whole-program lint's HLI012
rule replays that snapshot against the entries' current generations —
the link-time analog of the paper's staleness protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import TYPE_CHECKING, Optional

from ..backend.ddg import DepStats
from ..backend.rtl import RTLProgram
from ..frontend import parse_and_check
from ..hli import faults
from ..linker import (
    PARTITION_MODES,
    LinkResult,
    PartitionPlan,
    UnitAnalysis,
    analyze_unit,
    effects_fingerprint,
    effects_for_unit,
    link_image,
    link_units,
    partition_program,
)
from ..linker.table import LinkDiagnostic
from ..obs import enabled_scope
from ..obs import trace as _trace
from .compile import Compilation, CompileOptions, compile_source
from .session import CompileJob, resolve_workers

if TYPE_CHECKING:
    from ..checker.rules import LintReport
    from .session import CompilationSession

__all__ = ["WholeProgramResult", "compile_whole_program"]

#: A ``balanced`` phase 2 forks only when the units outside its heaviest
#: partition (which this process compiles) weigh at least this much, in
#: :func:`~repro.linker.partition.unit_weight` units.  Measured on a
#: 2-vCPU host with the fan-out forced (two runs, medians of 7 builds
#: per program): the 3-unit gen-multiunit-v1 programs pool 57-69 and ran
#: at 1.00-1.07x serial (0.78-1.11x per program), the 8-16-unit ones pool
#: 193-214 and ran at 1.07-1.14x (0.88-1.21x).  Besides the fork and the
#: pickled results, a live child slows this process's own share with
#: copy-on-write faults, so a light pooled share gains too little to pay
#: for a second process and loses on some programs.
FANOUT_MIN_WEIGHT = 120


def _analyze_source(sources: list[tuple[str, str]]) -> list[UnitAnalysis]:
    """Phase 1: parse + check + summarize every unit, in this process.

    A plain loop at every ``jobs`` value: on the 3-unit gen-multiunit-v1
    programs a 2-worker pool took 27–52 ms for this phase against
    10–15 ms serially (forks, plus pickling every AST back), and GCC's
    LTO likewise keeps its whole-program analysis serial.  The analyses
    stay in this process, so phase 2 hands each one to its unit's
    in-process compile.
    """
    analyses = []
    for filename, source in sources:
        program, table = parse_and_check(source, filename)
        analyses.append(analyze_unit(program, table, filename=filename))
    return analyses


@dataclass
class WholeProgramResult:
    """Everything whole-program compilation produced."""

    #: unit filename -> its per-unit compilation (program order)
    units: dict[str, Compilation] = field(default_factory=dict)
    #: link table + cross-module summaries (phase 1)
    link: LinkResult = field(default_factory=LinkResult)
    #: the merged executable image (runs on the unmodified executor)
    image: Optional[RTLProgram] = None
    #: diagnostics from the image merge (size/duplicate/orphan issues)
    image_diagnostics: list[LinkDiagnostic] = field(default_factory=list)
    #: function -> HLI generation its summary was recorded against
    #: (whole-program mode only; audited by lint rule HLI012)
    summary_generations: dict[str, int] = field(default_factory=dict)
    options: Optional[CompileOptions] = None
    #: whether phase 2 consumed the linked summaries
    whole_program: bool = True
    #: how phase 2 was scheduled (None when the serial default ran)
    partition_plan: Optional[PartitionPlan] = None

    def total_dep_stats(self) -> DepStats:
        """Scheduling statistics summed over every unit."""
        total = DepStats()
        for comp in self.units.values():
            total.merge(comp.total_dep_stats())
        return total

    def lint_report(self) -> "LintReport":
        """Run the whole-program auditor (rules HLI009–HLI012)."""
        from ..checker.wplint import lint_whole_program

        return lint_whole_program(self)


def _link_salt(link: LinkResult, effects: dict) -> str:
    """Cache salt binding a unit's artifacts to the link state."""
    h = sha256()
    h.update(b"repro-wpa-link\x00")
    h.update(link.fingerprint().encode("utf-8", "surrogatepass"))
    h.update(b"\x00")
    h.update(effects_fingerprint(effects).encode("utf-8", "surrogatepass"))
    return "wpa:" + h.hexdigest()


def compile_whole_program(
    sources: list[tuple[str, str]],
    options: Optional[CompileOptions] = None,
    whole_program: bool = True,
    session: Optional["CompilationSession"] = None,
    jobs: Optional[int] = 1,
    partition: str = "none",
) -> WholeProgramResult:
    """Compile ``(filename, source)`` units as one linked program.

    With ``whole_program=False`` the link step still runs (the image and
    diagnostics are always produced) but phase 2 compiles every unit
    with the conservative per-file defaults — the baseline the
    whole-program mode is measured against.

    ``jobs``/``partition`` schedule phase 2; phase 1 always runs
    serially in this process.  ``jobs=1`` or ``partition="none"`` (the
    default) compiles every unit here, one after another, each reusing
    its phase-1 AST, symbols and points-to result.  With ``jobs>1`` and
    a partition mode, phase 2 groups the units by
    :func:`~repro.linker.partition.partition_program` and hands the
    partitions, heaviest first by ``PartitionPlan.weights``, to
    :meth:`~repro.driver.session.CompilationSession.compile_partitions`
    (``jobs=0`` means one per usable CPU).  This process counts as one of the
    ``jobs``: it compiles the heaviest partition, and ``jobs - 1``
    forked children compile the rest.  Every
    :class:`~repro.driver.session.CompileJob` carries its unit's phase-1
    analysis, and children inherit it at the fork, so no unit is parsed
    twice.  If a child dies, its partitions compile here, on their
    analyses too.

    A ``balanced`` plan has at most one partition per CPU this process
    may run on, and it forks only when the units outside its heaviest
    partition weigh at least :data:`FANOUT_MIN_WEIGHT`; otherwise every
    unit compiles here and ``partition_plan`` records one partition.  A
    ``1to1`` plan forks as asked.  Scheduling never changes output: the
    compiled units, merged image, DepStats, summary generations and lint
    verdicts are identical across every ``jobs``/``partition`` choice.
    """
    if partition not in PARTITION_MODES:
        raise ValueError(
            f"partition mode must be one of {PARTITION_MODES}, got {partition!r}"
        )
    opts = options or CompileOptions()
    n_jobs = resolve_workers(jobs, len(sources))
    result = WholeProgramResult(options=opts, whole_program=whole_program)
    with enabled_scope(opts.trace):
        with _trace.span(
            "driver.wpa",
            units=len(sources),
            wp=whole_program,
            jobs=n_jobs,
            partition=partition,
        ):
            analyses = _analyze_source(sources)
            result.link = link_units(analyses)

            def job_for(filename: str, source: str, unit) -> CompileJob:
                if whole_program:
                    effects = effects_for_unit(unit, result.link.summaries)
                    salt = _link_salt(result.link, effects)
                else:
                    effects, salt = None, ""
                return CompileJob(
                    source=source,
                    filename=filename,
                    options=opts,
                    external_effects=effects,
                    extra_salt=salt,
                    analysis=unit,
                )

            plan = None
            if partition != "none" and n_jobs > 1 and len(sources) > 1:
                # balanced: at most one partition per usable CPU, and one
                # in all when the pooled share is too light to fork for
                result.partition_plan = plan = partition_program(
                    analyses,
                    mode=partition,
                    jobs=resolve_workers(0, n_jobs),
                    min_pooled=FANOUT_MIN_WEIGHT,
                )
            if plan is not None and plan.n_partitions > 1:
                by_name = {
                    fname: (src, unit)
                    for (fname, src), unit in zip(sources, analyses)
                }
                # Heaviest first: compile_partitions keeps the first cold
                # partition in this process and forks one child fewer.
                parts = sorted(plan.partitions, key=plan.load, reverse=True)
                batches = [
                    [job_for(f, *by_name[f]) for f in part] for part in parts
                ]
                sess = session
                if sess is None:
                    from .session import CompilationSession

                    sess = CompilationSession(cache_dir=None)
                compiled = sess.compile_partitions(batches, max_workers=n_jobs)
                flat: dict[str, Compilation] = {}
                for part, comps in zip(parts, compiled):
                    for fname, comp in zip(part, comps):
                        flat[fname] = comp
                # Reassemble in source order so the merged image layout
                # is independent of the partitioning.
                for filename, _src in sources:
                    result.units[filename] = flat[filename]
            else:
                for (filename, source), unit in zip(sources, analyses):
                    job = job_for(filename, source, unit)
                    if session is not None:
                        comp = session.compile(**vars(job))
                    else:
                        comp = compile_source(
                            job.source,
                            job.filename,
                            opts,
                            job.external_effects,
                            analysis=unit,
                        )
                    result.units[filename] = comp

            result.image, result.image_diagnostics = link_image(
                [(fname, comp.rtl) for fname, comp in result.units.items()]
            )

            if whole_program:
                _snapshot_generations(result)
    return result


def _snapshot_generations(result: WholeProgramResult) -> None:
    """Record each summarized function's HLI generation *after* phase 2.

    The back-end passes bump ``HLIEntry.generation`` through table
    maintenance, so the binding must be taken from the finished
    compilations — a link-time snapshot would be stale by construction.
    The :data:`~repro.hli.faults.STALE_SUMMARY` fault corrupts one
    binding here, modelling a summary reused across a relink.
    """
    for name, summary in result.link.summaries.items():
        comp = result.units.get(summary.unit)
        if comp is None or comp.hli is None:
            continue
        entry = comp.hli.entries.get(name)
        if entry is not None:
            result.summary_generations[name] = entry.generation
    if faults.is_active(faults.STALE_SUMMARY) and result.summary_generations:
        victim = sorted(result.summary_generations)[0]
        result.summary_generations[victim] -= 1
