"""Run a registry workload set through the compilation paths.

For every program in a named set the runner measures, with N timed
iterations after W discarded warmup iterations:

* **session** — cold compile latency (fresh memory-only
  :class:`~repro.driver.session.CompilationSession` per observation),
  warm compile latency (fresh session per observation over a disk cache
  one untimed compile filled), the warm/cold speedup, and the DDG
  edge-reduction percentage (the paper's headline precision claim, now
  characterized per profile class instead of per anecdote).  The warm
  sessions' counters give three facts: the share of programs whose
  every warm compile was a disk hit, the share of restored functions
  served from their back-end blob, and the count of front-end decodes.
  Multi-unit programs go through
  :func:`~repro.driver.wpa.compile_whole_program` twice (linked vs
  per-file) and report the cross-module edge deletion and link
  overhead; the two images must agree semantically or the run aborts —
  the bench refuses to report numbers for an unsound configuration.
* **incremental** — edit-one-function rebuild latency: a
  line-count-preserving edit to ``main`` against a warm session, with
  the invalidation invariant (back-end re-runs *exactly* ``main``)
  checked every iteration.
* **decode** — codec throughput of the hand-packed RTL function codec,
  verified on every decode (the ``decode-v1`` microbenchmark), plus RTL
  encode time per instruction on the set's largest function.
* **wpa** — partitioned parallel whole-program back end: cold serial
  (``jobs=1``) vs cold partitioned (``jobs=N, partition=balanced``)
  latency per multi-unit program, the resulting ``parallel_speedup``,
  and a hard parity oracle — alpha-equivalent per-unit RTL, equal
  ``DepStats``, an alpha-equivalent merged image, equal
  ``summary_generations`` and equal whole-program lint rule IDs —
  rolled up into the ``wpa.parity_ok`` fact (the ``wpa-v1`` regression
  gate).

Everything lands in a :class:`~repro.bench.report.Report`; regression
gates from a committed baseline file are evaluated by the CLI.
"""

from __future__ import annotations

import tempfile
from time import perf_counter
from typing import Callable, Optional

from ..backend.ddg import DDGMode
from ..driver.compile import CompileOptions
from ..driver.session import CompilationSession
from ..obs import metrics
from .registry import WorkloadProgram, get_set, materialize, program_digests, set_digest
from .report import Report, host_signature

__all__ = ["PATHS", "WPA_BENCH_JOBS", "run_set"]

PATHS = ("session", "incremental", "decode", "wpa")

#: the deterministic, line-count-preserving edit the incremental path
#: applies: an unused declaration at the head of ``main``'s body, so
#: only ``main``'s local fingerprint changes
_EDIT_ANCHOR = "int main() {"
_EDIT_REPLACEMENT = "int main() { int zzbench0;"


def _timed(fn: Callable[[], object]) -> tuple[float, object]:
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out


def _observe(fn: Callable[[], object], iterations: int, warmup: int):
    """``warmup`` discarded runs, then ``iterations`` timed ones.
    Returns ``(seconds_list, last_result)``."""
    last = None
    for _ in range(warmup):
        last = fn()
    seconds = []
    for _ in range(iterations):
        dt, last = _timed(fn)
        seconds.append(dt)
    return seconds, last


def _observe_pair(
    a: Callable[[], object], b: Callable[[], object], iterations: int, warmup: int
):
    """:func:`_observe` for two arms compared by ratio.

    Both arms' warm-ups run first; then every iteration times both arms,
    alternating which goes first, so host drift lands on both arms alike
    instead of reading as a difference between them.  Returns
    ``(a_seconds, b_seconds, a_last, b_last)``.
    """
    arms = (a, b)
    last: list[object] = [None, None]
    for _ in range(warmup):
        last = [a(), b()]
    seconds: tuple[list[float], list[float]] = ([], [])
    for i in range(iterations):
        for k in (i % 2, 1 - i % 2):
            dt, last[k] = _timed(arms[k])
            seconds[k].append(dt)
    return seconds[0], seconds[1], last[0], last[1]


def _options() -> CompileOptions:
    return CompileOptions(mode=DDGMode.COMBINED)


def _reduction_pct(comp) -> float:
    stats = comp.total_dep_stats()
    return 100.0 * stats.reduction


# ---------------------------------------------------------------------------
# session path
# ---------------------------------------------------------------------------

def _session_single(report: Report, prog: WorkloadProgram, n: int, w: int) -> dict:
    fname = prog.units[0][0]

    def cold():
        return CompilationSession().compile(prog.source, fname, _options())

    cold_secs, comp = _observe(cold, n, w)
    metrics.inc("bench.compiles", "cold", n + w)

    # a fresh session per warm observation, so every one restores from
    # the disk tier rather than from the memory tier of a previous one
    warm_sessions: list[tuple[CompilationSession, object]] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_dir:
        CompilationSession(cache_dir=cache_dir).compile(
            prog.source, fname, _options()
        )

        def warm():
            sess = CompilationSession(cache_dir=cache_dir)
            warm_comp = sess.compile(prog.source, fname, _options())
            warm_sessions.append((sess, warm_comp))
            return warm_comp

        warm_secs, _ = _observe(warm, n, w)
    metrics.inc("bench.compiles", "warm", n + w)

    from .stats import Summary

    cold_med = Summary.from_values(cold_secs).median
    warm_med = Summary.from_values(warm_secs).median
    report.add("session", prog.name, prog.profile, "cold_seconds", cold_secs)
    report.add("session", prog.name, prog.profile, "warm_seconds", warm_secs)
    report.add(
        "session", prog.name, prog.profile, "warm_speedup",
        [cold_med / warm_med if warm_med > 0 else float("inf")],
    )
    report.add(
        "session", prog.name, prog.profile, "ddg_reduction_pct",
        [_reduction_pct(comp)],
    )
    return {
        "warm_hit": all(c.cache_state == "disk" for _, c in warm_sessions),
        "fe_decodes": sum(
            sess.stats.fe_decodes + sess.stats.frontend_decodes
            for sess, _ in warm_sessions
        ),
        "be_hits_disk": sum(sess.stats.be_hits_disk for sess, _ in warm_sessions),
        "functions": sum(len(c.rtl.functions) for _, c in warm_sessions),
    }


def _session_multiunit(report: Report, prog: WorkloadProgram, n: int, w: int) -> dict:
    from ..driver.wpa import compile_whole_program
    from ..machine.executor import execute

    sources = list(prog.units)
    opts = _options()

    def wp():
        return compile_whole_program(sources, opts, whole_program=True)

    def pf():
        return compile_whole_program(sources, opts, whole_program=False)

    wp_secs, wp_res = _observe(wp, n, w)
    pf_secs, pf_res = _observe(pf, n, w)
    metrics.inc("bench.compiles", "whole_program", 2 * (n + w))

    run_wp = execute(wp_res.image, collect_trace=False)
    run_pf = execute(pf_res.image, collect_trace=False)
    agree = run_wp.ret == run_pf.ret and list(run_wp.output) == list(run_pf.output)
    if not agree:
        raise RuntimeError(
            f"{prog.name}: whole-program image diverges from per-file baseline"
        )
    s_wp, s_pf = wp_res.total_dep_stats(), pf_res.total_dep_stats()
    deleted_pct = (
        100.0 * (s_pf.call_dep - s_wp.call_dep) / s_pf.call_dep
        if s_pf.call_dep
        else 0.0
    )
    report.add("session", prog.name, prog.profile, "wp_seconds", wp_secs)
    report.add("session", prog.name, prog.profile, "pf_seconds", pf_secs)
    report.add(
        "session", prog.name, prog.profile, "wp_edges_deleted_pct", [deleted_pct]
    )
    return {"wp_agree": agree}


# ---------------------------------------------------------------------------
# incremental path
# ---------------------------------------------------------------------------

def _incremental(report: Report, prog: WorkloadProgram, n: int, w: int) -> dict:
    fname = prog.units[0][0]
    base = prog.source
    edited = base.replace(_EDIT_ANCHOR, _EDIT_REPLACEMENT, 1)

    recompiled_ok = True

    def rebuild():
        nonlocal recompiled_ok
        sess = CompilationSession()
        sess.compile(base, fname, _options())
        dt, comp = _timed(lambda: sess.compile(edited, fname, _options()))
        ran: set[str] = set()
        for units in comp.pipeline_stats.function_runs.values():
            ran |= set(units)
        if ran != {"main"}:
            recompiled_ok = False
        return dt

    # the session setup dominates wall time, so time inside the closure
    secs = []
    for _ in range(w):
        rebuild()
    for _ in range(n):
        secs.append(rebuild())
    metrics.inc("bench.compiles", "incremental", n + w)
    report.add("incremental", prog.name, prog.profile, "rebuild_seconds", secs)
    return {"exact_invalidation": recompiled_ok}


# ---------------------------------------------------------------------------
# decode path
# ---------------------------------------------------------------------------

def _decode(report: Report, progs: list[WorkloadProgram], n: int, w: int) -> dict:
    """Codec throughput (the ``decode-v1`` microbenchmark).

    Measures, for every single-unit program, the encode and decode cost
    of the hand-packed RTL function codec (the bulk of every per-function
    cache blob); multi-unit programs are skipped.  Each observation
    covers the whole program (all functions), so medians track
    suite-shaped work, not single-blob micronoise.  Every decode is
    verified against the encoded original's shape; a mismatch fails the
    run via the ``decode.roundtrip_ok`` fact.

    ``rtl_encode_us_per_insn`` times the encode of the largest
    single-unit function alone, per instruction: a linear codec costs
    the same per instruction at any size, so a cost that grows with
    function size (a per-register scan, say) shows here long before it
    moves the per-program medians.
    """
    from ..binfmt.rtlcodec import decode_rtl_function, encode_rtl_function
    from ..driver.compile import compile_source

    ok = True
    total_blob_bytes = 0
    largest = None  # (RTL function, its program)
    singles = [prog for prog in progs if not prog.multi_unit]
    for prog in singles:
        comp = compile_source(prog.source, prog.units[0][0], _options())
        fns = list(comp.rtl.functions.values())
        for fn in fns:
            if largest is None or len(fn.insns) > len(largest[0].insns):
                largest = (fn, prog)

        def rtl_encode():
            return [encode_rtl_function(fn) for fn in fns]

        enc_secs, blobs = _observe(rtl_encode, n, w)
        dec_secs, decoded = _observe(
            lambda: [decode_rtl_function(b) for b in blobs], n, w
        )
        ok &= [f.name for f in decoded] == [f.name for f in fns]
        ok &= all(
            len(a.insns) == len(b.insns) for a, b in zip(decoded, fns)
        )
        total_blob_bytes += sum(len(b) for b in blobs)
        report.add("decode", prog.name, prog.profile, "rtl_encode_seconds", enc_secs)
        report.add("decode", prog.name, prog.profile, "rtl_decode_seconds", dec_secs)
    if largest is not None:
        big, prog = largest
        secs, _ = _observe(lambda: encode_rtl_function(big), n, w)
        report.add(
            "decode", prog.name, prog.profile, "rtl_encode_us_per_insn",
            [1e6 * s / len(big.insns) for s in secs],
        )
    metrics.inc("bench.compiles", "decode", len(singles))
    return {"roundtrip_ok": ok, "blob_bytes": total_blob_bytes}


# ---------------------------------------------------------------------------
# wpa path
# ---------------------------------------------------------------------------

#: worker count the partitioned observation requests.  The driver clamps
#: a ``balanced`` plan to the CPUs the process may use, so an 8-16-unit
#: program gets one partition per CPU up to 4 (on a 2-CPU host the parent
#: plus one forked child; 4+ CPUs, the parent plus 3), and a 3-unit
#: program, whose pooled share is below ``wpa.FANOUT_MIN_WEIGHT``, forks
#: nothing.  The wpa-v1 floors were measured on an oversubscribed arm
#: (4 partitions on 1-2 cores) before that clamp
WPA_BENCH_JOBS = 4


def _wpa(report: Report, prog: WorkloadProgram, n: int, w: int, jobs: int) -> dict:
    """Cold serial vs cold partitioned whole-program compile + parity oracle."""
    from ..difftest.incremental import canonical_rtl
    from ..driver.wpa import compile_whole_program

    sources = list(prog.units)
    opts = _options()

    # a fresh memory-only session per observation keeps both arms cold;
    # the partitioned arm still exercises the cross-partition cache path
    # because workers share nothing and ship results back to the parent
    def serial():
        return compile_whole_program(
            sources, opts, session=CompilationSession(), jobs=1, partition="none"
        )

    def partitioned():
        return compile_whole_program(
            sources, opts, session=CompilationSession(),
            jobs=jobs, partition="balanced",
        )

    serial_secs, par_secs, s_res, p_res = _observe_pair(serial, partitioned, n, w)
    metrics.inc("bench.compiles", "wpa", 2 * (n + w))

    def lint_rules(res) -> list[str]:
        return sorted({d.rule.rule_id for d in res.lint_report().diagnostics})

    parity = (
        list(s_res.units) == list(p_res.units)
        and all(
            canonical_rtl(s_res.units[f].rtl) == canonical_rtl(p_res.units[f].rtl)
            for f in s_res.units
        )
        and s_res.total_dep_stats() == p_res.total_dep_stats()
        and canonical_rtl(s_res.image) == canonical_rtl(p_res.image)
        and s_res.summary_generations == p_res.summary_generations
        and lint_rules(s_res) == lint_rules(p_res)
    )

    from .stats import Summary

    s_med = Summary.from_values(serial_secs).median
    p_med = Summary.from_values(par_secs).median
    plan = p_res.partition_plan
    report.add("wpa", prog.name, prog.profile, "serial_seconds", serial_secs)
    report.add("wpa", prog.name, prog.profile, "partitioned_seconds", par_secs)
    report.add(
        "wpa", prog.name, prog.profile, "parallel_speedup",
        [s_med / p_med if p_med > 0 else float("inf")],
    )
    report.add(
        "wpa", prog.name, prog.profile, "partition_skew",
        [plan.skew if plan is not None else 1.0],
    )
    return {
        "parity": parity,
        "partitions": plan.n_partitions if plan is not None else 1,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_set(
    name: str,
    iterations: int = 3,
    warmup: int = 1,
    paths: tuple[str, ...] = PATHS,
    progress: Optional[Callable[[str], None]] = None,
    wpa_jobs: int = WPA_BENCH_JOBS,
) -> Report:
    """Run workload set ``name`` and return the populated report."""
    unknown = [p for p in paths if p not in PATHS]
    if unknown:
        raise ValueError(f"unknown paths {unknown}; choose from {PATHS}")
    workload_set = get_set(name)
    progs = list(materialize(name))
    report = Report(
        set_name=workload_set.full_name,
        set_digest=set_digest(name),
        iterations=iterations,
        warmup=warmup,
        program_digests=program_digests(name),
        host=host_signature(),
    )
    metrics.inc("bench.sets_run")
    say = progress or (lambda _msg: None)

    if "session" in paths:
        hits = 0
        eligible = 0
        fe_decodes = 0
        be_hits = 0
        restored = 0
        wp_agree = 0
        wp_total = 0
        for prog in progs:
            say(f"session: {prog.name}")
            if prog.multi_unit:
                facts = _session_multiunit(report, prog, iterations, warmup)
                wp_total += 1
                wp_agree += bool(facts["wp_agree"])
            else:
                facts = _session_single(report, prog, iterations, warmup)
                eligible += 1
                hits += bool(facts["warm_hit"])
                fe_decodes += facts["fe_decodes"]
                be_hits += facts["be_hits_disk"]
                restored += facts["functions"]
        if eligible:
            report.facts["session.warm_hit_ratio"] = hits / eligible
            report.facts["session.warm_fe_decodes"] = fe_decodes
            report.facts["session.warm_be_hit_ratio"] = (
                be_hits / restored if restored else 0.0
            )
        if wp_total:
            report.facts["session.wp_agree_ratio"] = wp_agree / wp_total

    if "incremental" in paths:
        exact = 0
        eligible = 0
        for prog in progs:
            if prog.multi_unit or _EDIT_ANCHOR not in prog.source:
                continue
            say(f"incremental: {prog.name}")
            facts = _incremental(report, prog, iterations, warmup)
            eligible += 1
            exact += bool(facts["exact_invalidation"])
        if eligible:
            report.facts["incremental.exact_invalidation"] = exact / eligible

    if "decode" in paths:
        say("decode: single-unit programs")
        facts = _decode(report, progs, iterations, warmup)
        report.facts["decode.roundtrip_ok"] = float(facts["roundtrip_ok"])
        report.facts["decode.blob_bytes"] = facts["blob_bytes"]

    if "wpa" in paths:
        parity_ok = 0
        wpa_total = 0
        partitions = 0
        for prog in progs:
            if not prog.multi_unit:
                continue
            say(f"wpa: {prog.name}")
            facts = _wpa(report, prog, iterations, warmup, wpa_jobs)
            wpa_total += 1
            parity_ok += bool(facts["parity"])
            partitions += facts["partitions"]
        if wpa_total:
            report.facts["wpa.parity_ok"] = parity_ok / wpa_total
            report.facts["wpa.partitions"] = partitions

    report.facts["programs"] = len(progs)
    metrics.add("bench.programs_measured", len(progs))
    return report
