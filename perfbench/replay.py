"""Replays of one operation as the public layer calls the pipeline makes.

The traced run first times an operation's real public call, then calls
one of these functions, which repeat the operation's work layer by layer
with a span around every call.  A replay works on its own parse of the
source, so it never touches the real call's results or caches.  Work the
real call does that no replayed call covers (cache bookkeeping, hashing,
disk I/O, blob framing) shows up as the run's ``unattributed`` share.
"""

from __future__ import annotations

import copy
from typing import Optional

from repro.analysis.builder import HLIBuilder
from repro.backend.ddg import DDGMode, DepStats
from repro.backend.cse import run_cse
from repro.backend.licm import run_licm
from repro.backend.lowering import lower_program
from repro.backend.mapping import map_function
from repro.backend.rtl import RTLFunction, RTLProgram
from repro.backend.scheduler import schedule_function
from repro.backend.unroll import run_unroll
from repro.binfmt.rtlcodec import decode_rtl_function, encode_rtl_function
from repro.driver.compile import CompileOptions
from repro.driver.incremental import function_keys
from repro.driver.session import CompilationSession, CompileJob, parallel_map
from repro.frontend import analyze, parse, parse_and_check
from repro.hli.binio import encode_hli
from repro.hli.query import HLIQuery
from repro.hli.tables import HLIEntry, HLIFile
from repro.linker import (
    analyze_unit,
    effects_for_unit,
    link_image,
    link_units,
    partition_program,
)
from repro.linker.unit import UnitAnalysis
from repro.machine.executor import execute

from .tracing import Tracer


def edges_kept(stats: DepStats, mode: DDGMode) -> int:
    """Dependence edges the scheduler kept: memory pairs plus call orderings."""
    memory = stats.gcc_yes if mode is DDGMode.GCC else stats.combined_yes
    return memory + stats.call_dep


def front_end(
    t: Tracer, source: str, filename: str, effects: Optional[dict] = None,
    only: Optional[set[str]] = None,
) -> tuple[HLIBuilder, HLIFile, RTLProgram]:
    """parse → analyze → HLIBuilder → function_keys → build_unit → lower.

    ``only`` restricts ITEMGEN to the functions an edit invalidated; the
    others are spliced from the cache by the real call.
    """
    with t.span("frontend.parse"):
        program = parse(source, filename)
    t.count("frontend.lines", source.count("\n") + 1)
    with t.span("frontend.semantic"):
        table = analyze(program)
    with t.span("analysis.interproc"):
        builder = HLIBuilder(program, table, external_effects=effects)
    with t.span("driver.incremental.function_keys"):
        function_keys(source, program, table, builder.pts, builder.refmod)
    hli = HLIFile(source_filename=program.filename)
    for fn in program.functions:
        if only is not None and fn.name not in only:
            continue
        with t.span("analysis.itemgen"):
            entry, unit = builder.build_unit(fn)
        t.count("analysis.items", len(unit.items))
        hli.add(entry)
    with t.span("backend.lower"):
        rtl = lower_program(program, table)
    with t.span("hli.encode"):
        encode_hli(hli)
    return builder, hli, rtl


def store_rtl(t: Tracer, fn: RTLFunction) -> None:
    """The session's blob write for one function's RTL."""
    with t.span("binfmt.rtl_encode"):
        blob = encode_rtl_function(fn)
    t.count("binfmt.blob_bytes", len(blob))


def load_rtl(t: Tracer, blob: bytes) -> None:
    """The session's blob read for one function's RTL."""
    with t.span("binfmt.rtl_decode"):
        decode_rtl_function(blob)
    t.count("binfmt.blob_bytes", len(blob))


def back_end(
    t: Tracer, fn: RTLFunction, entry: Optional[HLIEntry], opts: CompileOptions
) -> DepStats:
    """map → HLIQuery → unroll/cse/licm → schedule, rebuilding the query
    index exactly when the pass manager would (a later pass requires it
    after an earlier one invalidated it)."""
    use_hli = opts.mode is not DDGMode.GCC
    query: Optional[HLIQuery] = None
    stale = False
    if entry is not None:
        with t.span("backend.map"):
            map_function(fn, entry)
        with t.span("hli.query_build"):
            query = HLIQuery(entry)

    def fresh_query() -> Optional[HLIQuery]:
        nonlocal query, stale
        if stale and entry is not None:
            with t.span("hli.query_build"):
                query = HLIQuery(entry)
            stale = False
        return query

    opt_passes = []
    if opts.unroll > 1:
        opt_passes.append(("unroll", use_hli))
    if opts.cse:
        opt_passes.append(("cse", True))
    if opts.licm:
        opt_passes.append(("licm", True))
    for name, invalidates in opt_passes:
        q = fresh_query() if use_hli else None
        with t.span("backend.opt"):
            if name == "unroll":
                run_unroll(fn, opts.unroll, query=q, entry=entry)
            elif name == "cse":
                run_cse(fn, use_hli=use_hli, query=q, entry=entry)
            else:
                run_licm(fn, use_hli=use_hli, query=q, entry=entry)
        stale = stale or invalidates
    q = fresh_query()
    with t.span("backend.schedule"):
        sched = schedule_function(fn, mode=opts.mode, query=q, latency=opts.latency)
    t.count("backend.rtl_insns", len(fn.insns))
    t.count("backend.ddg_edges_kept", edges_kept(sched.stats, opts.mode))
    return sched.stats


def compile_replay(
    t: Tracer,
    source: str,
    filename: str,
    opts: CompileOptions,
    effects: Optional[dict] = None,
) -> RTLProgram:
    """A cold session compile: front end, pristine RTL store, back end,
    final RTL store."""
    _builder, hli, rtl = front_end(t, source, filename, effects)
    for fn in rtl.functions.values():
        store_rtl(t, fn)
    for name, fn in rtl.functions.items():
        back_end(t, fn, hli.entries.get(name), opts)
        store_rtl(t, fn)
    return rtl


def edit_replay(
    t: Tracer,
    source: str,
    filename: str,
    opts: CompileOptions,
    invalidated: set[str],
    spliced: list[bytes],
) -> None:
    """An edit rebuild: the front end for the whole file, the back end for
    the invalidated functions only, and a blob read for every function
    spliced from the warm cache."""
    _builder, hli, rtl = front_end(t, source, filename, only=invalidated)
    for blob in spliced:
        load_rtl(t, blob)
    for name in invalidated:
        fn = rtl.functions[name]
        store_rtl(t, fn)
        back_end(t, fn, hli.entries.get(name), opts)
        store_rtl(t, fn)


def warm_replay(t: Tracer, blobs: list[bytes]) -> None:
    """A warm hit: every function's RTL decoded from its cache blob."""
    for blob in blobs:
        load_rtl(t, blob)


def row_replay(t: Tracer, spec, configs) -> None:
    """One Table-2 row: one front end shared by the four compiles (as the
    row's session shares it), then per (machine, mode) the back end,
    ``execute`` and the machine model's ``time``."""
    _builder, hli, rtl = front_end(t, spec.source, spec.name)
    for fn in rtl.functions.values():
        store_rtl(t, fn)
    for machine, model, opts in configs:
        rtl_c, hli_c = copy.deepcopy((rtl, hli))
        for name, fn in rtl_c.functions.items():
            back_end(t, fn, hli_c.entries.get(name), opts)
            store_rtl(t, fn)
        with t.span("machine.execute"):
            res = execute(rtl_c, spec.entry, input_text=spec.input_text)
        t.count("machine.dyn_insns", len(res.trace))
        with t.span(f"machine.{machine}"):
            model.time(res.trace)
        t.count(f"machine.{machine}_insns", len(res.trace))


def analyze_source(item: tuple[str, str]) -> UnitAnalysis:
    """Phase-1 work for one unit (module level so a pool can run it)."""
    filename, source = item
    program, table = parse_and_check(source, filename)
    return analyze_unit(program, table, filename=filename)


def wp_replay(
    t: Tracer, units: tuple[tuple[str, str], ...], opts: CompileOptions, jobs: int
) -> None:
    """``compile_whole_program``: analyze_unit → link_units →
    partition_program → effects_for_unit → per-unit compiles → link_image.
    At ``jobs > 1`` phase 1 runs through ``parallel_map`` and phase 2
    through ``compile_partitions``, as the driver schedules them."""
    if jobs > 1:
        with t.span("driver.pool.parallel_map"):
            analyses = parallel_map(analyze_source, list(units), max_workers=jobs)
    else:
        analyses = []
        for filename, source in units:
            with t.span("frontend.parse"):
                program = parse(source, filename)
            t.count("frontend.lines", source.count("\n") + 1)
            with t.span("frontend.semantic"):
                table = analyze(program)
            with t.span("linker.analyze_unit"):
                analyses.append(analyze_unit(program, table, filename=filename))
    with t.span("linker.link"):
        link = link_units(analyses)
    t.count("linker.scc_iterations", link.summary.total_iterations)
    effects = []
    for unit in analyses:
        with t.span("linker.adapter"):
            effects.append(effects_for_unit(unit, link.summaries))
    rtls: dict[str, RTLProgram] = {}
    if jobs > 1:
        with t.span("linker.partition"):
            plan = partition_program(analyses, mode="balanced", jobs=jobs)
        t.count("linker.partition_skew", plan.skew)
        by_name = {
            filename: CompileJob(source, filename, opts, eff)
            for (filename, source), eff in zip(units, effects)
        }
        session = CompilationSession()
        with t.span("driver.pool.compile_partitions"):
            compiled = session.compile_partitions(
                [[by_name[f] for f in part] for part in plan.partitions],
                max_workers=jobs,
            )
        # jobs the parent had to compile itself are the dead-worker fallbacks
        t.count("driver.pool.fallbacks", session.stats.stores)
        for part, comps in zip(plan.partitions, compiled):
            for filename, comp in zip(part, comps):
                rtls[filename] = comp.rtl
    else:
        for (filename, source), eff in zip(units, effects):
            rtls[filename] = compile_replay(t, source, filename, opts, eff)
    with t.span("linker.image"):
        link_image([(filename, rtls[filename]) for filename, _ in units])
