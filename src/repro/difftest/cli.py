"""``repro-fuzz`` — the differential fuzzing command.

Normal mode generates seeded random programs (:mod:`repro.difftest.gen`)
and runs each through the differential matrix
(:mod:`repro.difftest.diff`); any failing program is shrunk with the
delta-debugging reducer (:mod:`repro.difftest.reduce`) and written to
the crash directory.

Mutation mode (``--inject``) measures the harness's *detection power*:
it arms the known-miscompilation faults of :mod:`repro.hli.faults`
(dropped maintenance call, stale generation counter, flipped dependence
verdict) one at a time and fuzzes until each armed fault is caught.  A
fault the harness cannot catch is itself a finding — it means the
test oracle has a blind spot, and the command exits non-zero.

Examples::

    repro-fuzz --count 200 --matrix quick
    repro-fuzz --count 1000 --matrix full --time-budget 600
    repro-fuzz --inject --count 50
    repro-fuzz --seed 1234 --count 1 --gen large --stats-out metrics.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Optional

from .. import obs
from ..hli import faults
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .diff import DiffResult, build_matrix, run_differential
from .gen import GenConfig, generate
from .reduce import reduce_source, write_crash

__all__ = ["main", "run_fuzz", "run_incremental_fuzz", "run_inject", "run_wp_fuzz"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="Differential fuzzing of the HLI compilation pipeline.",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; program k uses seed+k (default 0)")
    p.add_argument("--count", type=int, default=100,
                   help="number of random programs (default 100)")
    p.add_argument("--time-budget", type=float, default=0.0, metavar="SECONDS",
                   help="stop early after this many seconds (0 = no limit;"
                        " not with --jobs in normal mode)")
    p.add_argument("--matrix", choices=["quick", "full"], default="quick",
                   help="configuration matrix to run each program under")
    p.add_argument("--gen", choices=["small", "medium", "large", "mixed"],
                   default="mixed",
                   help="generator size preset (mixed cycles all three)")
    p.add_argument("--inject", action="store_true",
                   help="mutation mode: arm each known fault and verify the"
                        " harness detects it")
    p.add_argument("--incremental", action="store_true",
                   help="incremental mode: edit one function per program and"
                        " verify the warm session's spliced recompile matches"
                        " a cold compile (RTL, semantics, lint, and exact"
                        " invalidation set)")
    p.add_argument("--wp", action="store_true",
                   help="whole-program mode: split each program over 2-4"
                        " units and verify linked compilation agrees with"
                        " per-file compilation semantically while keeping"
                        " at most as many dependence edges")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="fan the fuzz batch out over N worker processes"
                        " (0 = one per core; default 1, serial; normal"
                        " mode) or, with --wp, the whole-program back"
                        " end within each seeded program")
    p.add_argument("--partition", choices=["none", "1to1", "balanced"],
                   default="none", metavar="MODE",
                   help="partition mode for the whole-program back end"
                        " (--wp only): none (serial), 1to1, or balanced;"
                        " every seed then doubles as a partitioned-vs-"
                        "serial parity probe (default none)")
    p.add_argument("--crash-dir", default="crashes", metavar="DIR",
                   help="directory for reduced reproducers (default crashes/)")
    p.add_argument("--no-reduce", action="store_true",
                   help="report failures without delta-debugging them")
    p.add_argument("--stats-out", metavar="FILE",
                   help="write the obs metrics snapshot to FILE as JSON")
    p.add_argument("--max-failures", type=int, default=5,
                   help="stop after this many failing programs (default 5)")
    p.add_argument("-q", "--quiet", action="store_true",
                   help="only print the final summary")
    return p


_PRESETS = ["small", "medium", "large"]


def _config_for(args: argparse.Namespace, k: int) -> GenConfig:
    if args.gen == "mixed":
        return GenConfig.preset(_PRESETS[k % len(_PRESETS)])
    return GenConfig.preset(args.gen)


def _preset_for(gen: str, k: int) -> str:
    return _PRESETS[k % len(_PRESETS)] if gen == "mixed" else gen


def _fuzz_worker(job: tuple) -> dict:
    """Batch worker for :func:`parallel_map`: fuzz one seed.

    Returns a light summary — the parent re-runs failing seeds serially
    to get the full :class:`DiffResult` for reporting and reduction, so
    nothing heavyweight crosses the process boundary.
    """
    seed, preset, matrix_name = job
    source = generate(seed, GenConfig.preset(preset))
    res = run_differential(source, seed=seed, matrix=build_matrix(matrix_name))
    return {"seed": seed, "preset": preset, "ok": res.ok,
            "n_failures": len(res.failures)}


def _run_fuzz_batch(args: argparse.Namespace, out) -> int:
    """Parallel fan-out: summarize every seed, then replay failures serially."""
    from ..driver.session import parallel_map, resolve_workers

    jobs = [
        (args.seed + k, _preset_for(args.gen, k), args.matrix)
        for k in range(args.count)
    ]
    workers = resolve_workers(args.jobs, len(jobs))
    with _trace.span("difftest.fuzz.batch", count=len(jobs), workers=workers):
        summaries = parallel_map(_fuzz_worker, jobs, max_workers=workers)
    matrix = build_matrix(args.matrix)
    failing: list[DiffResult] = []
    for summary in summaries:
        if summary["ok"]:
            continue
        seed, preset = summary["seed"], summary["preset"]
        source = generate(seed, GenConfig.preset(preset))
        res = run_differential(source, seed=seed, matrix=matrix)
        failing.append(res)
        _report_failure(res, args, out)
        if not args.no_reduce:
            case = reduce_source(
                source,
                seed=seed,
                matrix=matrix,
                kinds=frozenset(f.kind for f in res.failures),
            )
            path = write_crash(case, args.crash_dir)
            print(
                f"  reduced {case.original_lines} -> "
                f"{case.reduced_lines} lines: {path}",
                file=out,
            )
        if len(failing) >= args.max_failures:
            print(f"stopping after {len(failing)} failures", file=out)
            break
    verdict = "FAIL" if failing else "ok"
    print(
        f"repro-fuzz: {len(summaries)} programs x {len(matrix)} configs"
        f" ({args.matrix} matrix, {workers} workers):"
        f" {len(failing)} failing -> {verdict}",
        file=out,
    )
    return 1 if failing else 0


def _report_failure(res: DiffResult, args, out) -> None:
    print(f"FAIL seed={res.seed}:", file=out)
    for f in res.failures[:8]:
        print(f"  {f.format()}", file=out)
    if len(res.failures) > 8:
        print(f"  ... {len(res.failures) - 8} more", file=out)


def run_fuzz(args: argparse.Namespace, out=None) -> int:
    """Normal fuzzing: generate, diff, reduce, persist. Returns exit code."""
    out = out if out is not None else sys.stdout
    if getattr(args, "jobs", 1) != 1:
        return _run_fuzz_batch(args, out)
    matrix = build_matrix(args.matrix)
    deadline = time.monotonic() + args.time_budget if args.time_budget else None
    ran = 0
    failing: list[DiffResult] = []
    with _trace.span("difftest.fuzz", count=args.count, matrix=args.matrix):
        for k in range(args.count):
            if deadline is not None and time.monotonic() > deadline:
                if not args.quiet:
                    print(f"time budget exhausted after {ran} programs", file=out)
                break
            seed = args.seed + k
            source = generate(seed, _config_for(args, k))
            res = run_differential(source, seed=seed, matrix=matrix)
            ran += 1
            if not res.ok:
                failing.append(res)
                _report_failure(res, args, out)
                if not args.no_reduce:
                    case = reduce_source(
                        source,
                        seed=seed,
                        matrix=matrix,
                        kinds=frozenset(f.kind for f in res.failures),
                    )
                    path = write_crash(case, args.crash_dir)
                    print(
                        f"  reduced {case.original_lines} -> "
                        f"{case.reduced_lines} lines: {path}",
                        file=out,
                    )
                if len(failing) >= args.max_failures:
                    print(f"stopping after {len(failing)} failures", file=out)
                    break
            elif not args.quiet and ran % 50 == 0:
                print(f"  {ran}/{args.count} programs clean", file=out)

    verdict = "FAIL" if failing else "ok"
    print(
        f"repro-fuzz: {ran} programs x {len(matrix)} configs"
        f" ({args.matrix} matrix): {len(failing)} failing -> {verdict}",
        file=out,
    )
    return 1 if failing else 0


#: Which failure kinds count as "detection" for each injected fault.
_EXPECTED_CHANNELS = {
    faults.DROP_MAINTENANCE: ("maintenance", "lint", "semantic"),
    faults.STALE_GENERATION: ("lint", "semantic", "compile-crash"),
    faults.FLIP_VERDICT: ("lint", "semantic", "memory"),
}

#: Which whole-program lint rule must fire for each link-time fault
#: (detection channel: the HLI009–HLI012 auditor on a multi-file build).
_EXPECTED_WP_RULES = {
    faults.DROP_SUMMARY: "HLI009",
    faults.SWAP_LINK_ENTRIES: "HLI010",
    faults.STALE_SUMMARY: "HLI012",
}


def run_incremental_fuzz(args: argparse.Namespace, out=None) -> int:
    """Incremental mode: edited programs must splice-recompile exactly.

    Each seed alternates between a computation-only edit and a
    REF/MOD-changing one (which must transitively invalidate callers).
    Returns non-zero if any program's incremental recompile diverges
    from the cold compile in any dimension the oracle checks.
    """
    from .incremental import run_incremental

    out = out if out is not None else sys.stdout
    deadline = time.monotonic() + args.time_budget if args.time_budget else None
    ran = 0
    failing = 0
    with _trace.span("difftest.incremental", count=args.count):
        for k in range(args.count):
            if deadline is not None and time.monotonic() > deadline:
                if not args.quiet:
                    print(f"time budget exhausted after {ran} programs", file=out)
                break
            seed = args.seed + k
            res = run_incremental(
                seed, _config_for(args, k), refmod_changing=bool(k % 2)
            )
            ran += 1
            if not res.ok:
                failing += 1
                kind = "refmod" if k % 2 else "plain"
                print(f"  seed {seed} ({kind} edit of {res.target}): FAIL", file=out)
                for msg in res.failures:
                    print(f"    {msg}", file=out)
                if failing >= args.max_failures:
                    print(f"stopping after {failing} failures", file=out)
                    break
            elif not args.quiet and ran % 50 == 0:
                print(f"  {ran}/{args.count} programs clean", file=out)
    verdict = "FAIL" if failing else "ok"
    print(
        f"repro-fuzz --incremental: {ran} edit-recompile checks:"
        f" {failing} failing -> {verdict}",
        file=out,
    )
    return 1 if failing else 0


def run_wp_fuzz(args: argparse.Namespace, out=None) -> int:
    """Whole-program mode: linked and per-file builds must agree.

    Each seeded program is split over 2–4 units; the differential
    checks semantics, edge-count monotonicity, and both lint tiers
    (see :mod:`repro.difftest.wp`).  Returns non-zero on any finding.
    """
    from .wp import run_wp_differential

    out = out if out is not None else sys.stdout
    deadline = time.monotonic() + args.time_budget if args.time_budget else None
    jobs = getattr(args, "jobs", 1)
    partition = getattr(args, "partition", "none")
    ran = 0
    failing = 0
    deleted = 0
    partitions = 0
    max_skew = 1.0
    with _trace.span("difftest.wp.fuzz", count=args.count):
        for k in range(args.count):
            if deadline is not None and time.monotonic() > deadline:
                if not args.quiet:
                    print(f"time budget exhausted after {ran} programs", file=out)
                break
            seed = args.seed + k
            res = run_wp_differential(
                seed,
                _config_for(args, k),
                n_units=2 + k % 3,
                jobs=jobs,
                partition=partition,
            )
            ran += 1
            deleted += max(0, res.edges_deleted)
            partitions += res.partitions
            max_skew = max(max_skew, res.partition_skew)
            if not res.ok:
                failing += 1
                print(f"  seed {seed} ({res.n_units} units): FAIL", file=out)
                for msg in res.failures:
                    print(f"    {msg}", file=out)
                if failing >= args.max_failures:
                    print(f"stopping after {failing} failures", file=out)
                    break
            elif not args.quiet and ran % 50 == 0:
                print(f"  {ran}/{args.count} programs clean", file=out)
    verdict = "FAIL" if failing else "ok"
    sched = ""
    if partition != "none":
        sched = (
            f" [{partition} partitioning, {partitions} partitions,"
            f" max skew {max_skew:.2f}]"
        )
    print(
        f"repro-fuzz --wp: {ran} linked-vs-per-file checks"
        f" ({deleted} extra call edges deleted by linking){sched}:"
        f" {failing} failing -> {verdict}",
        file=out,
    )
    return 1 if failing else 0


def run_inject(args: argparse.Namespace, out=None) -> int:
    """Mutation mode: every known fault must be detected. Returns exit code."""
    out = out if out is not None else sys.stdout
    matrix = build_matrix(args.matrix)
    deadline = time.monotonic() + args.time_budget if args.time_budget else None
    detected: dict[str, Optional[dict]] = {}
    with _trace.span("difftest.inject", count=args.count):
        for fault in faults.ALL_FAULTS:
            found: Optional[dict] = None
            if fault in faults.LINK_FAULTS:
                # Link faults only exist on multi-file builds; the
                # detection channel is the whole-program auditor.
                from .wp import run_wp_differential

                expected_rule = _EXPECTED_WP_RULES[fault]
                with faults.inject(fault):
                    for k in range(args.count):
                        if deadline is not None and time.monotonic() > deadline:
                            break
                        seed = args.seed + k
                        res = run_wp_differential(
                            seed, _config_for(args, k), n_units=2 + k % 3
                        )
                        if any(
                            r.startswith(expected_rule)
                            for r in res.wp_lint_rules
                        ):
                            found = {
                                "seed": seed,
                                "programs": k + 1,
                                "kinds": [f"wp-lint:{expected_rule}"],
                            }
                            _metrics.inc("difftest.inject.detected", fault)
                            break
                detected[fault] = found
            else:
                channels = _EXPECTED_CHANNELS[fault]
                with faults.inject(fault):
                    for k in range(args.count):
                        if deadline is not None and time.monotonic() > deadline:
                            break
                        seed = args.seed + k
                        source = generate(seed, _config_for(args, k))
                        res = run_differential(source, seed=seed, matrix=matrix)
                        hits = [f for f in res.failures if f.kind in channels]
                        if hits:
                            found = {
                                "seed": seed,
                                "programs": k + 1,
                                "kinds": sorted({f.kind for f in hits}),
                            }
                            _metrics.inc("difftest.inject.detected", fault)
                            break
                detected[fault] = found
            if found is not None:
                print(
                    f"  fault {fault}: DETECTED after {found['programs']}"
                    f" program(s) via {', '.join(found['kinds'])}"
                    f" (seed {found['seed']})",
                    file=out,
                )
            else:
                _metrics.inc("difftest.inject.missed", fault)
                print(
                    f"  fault {fault}: NOT DETECTED in {args.count}"
                    f" program(s) - the oracle has a blind spot",
                    file=out,
                )

    missed = [f for f, v in detected.items() if v is None]
    verdict = "FAIL" if missed else "ok"
    print(
        f"repro-fuzz --inject: {len(detected) - len(missed)}/{len(detected)}"
        f" seeded faults detected -> {verdict}",
        file=out,
    )
    return 1 if missed else 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.count < 1:
        print("--count must be >= 1", file=sys.stderr)
        return 2
    normal = not (args.inject or args.incremental or args.wp)
    if normal and args.jobs != 1 and args.time_budget:
        # the batch fan-out dispatches every seed up front, so a budget
        # could not stop it early
        print("--time-budget applies to serial fuzzing only (not --jobs)",
              file=sys.stderr)
        return 2
    if args.partition != "none" and not args.wp:
        print("--partition requires --wp", file=sys.stderr)
        return 2
    with obs.enabled_scope(True):
        if args.inject:
            code = run_inject(args)
        elif args.incremental:
            code = run_incremental_fuzz(args)
        elif args.wp:
            code = run_wp_fuzz(args)
        else:
            code = run_fuzz(args)
        if args.stats_out:
            Path(args.stats_out).write_text(
                json.dumps(_metrics.snapshot(), indent=2) + "\n"
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
