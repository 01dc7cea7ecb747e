"""One-command artifact validation: ``python -m repro.driver.validate``.

Runs the complete reproduction — Table 1, Table 2, speedups, and the
figure-level checks — and writes a machine-readable ``RESULTS.json``
plus a pass/fail summary of every shape claim in EXPERIMENTS.md.
Intended as the artifact-evaluation entry point.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from time import perf_counter

from .. import obs
from ..backend.ddg import DDGMode
from ..hli.sizes import size_report
from ..machine.executor import execute
from ..obs import export as obs_export
from ..obs import trace as obs_trace
from ..workloads.suite import BENCHMARKS, by_name, float_benchmarks, integer_benchmarks
from .compile import CompileOptions
from .session import CompilationSession, parallel_map
from .timing import time_benchmark


@dataclass
class Claim:
    """One checkable shape claim from the paper."""

    name: str
    description: str
    passed: bool
    measured: object = None
    #: wall time spent checking this claim (including exclusive evidence
    #: collection, e.g. the lint replay), via ``perf_counter``
    seconds: float = 0.0


@dataclass
class ValidationReport:
    #: ``perf_counter`` at construction — monotonic, immune to wall-clock
    #: steps (NTP adjustments used to corrupt ``elapsed_seconds``)
    started: float = field(default_factory=perf_counter)
    table1: list[dict] = field(default_factory=list)
    table2: list[dict] = field(default_factory=list)
    speedups: list[dict] = field(default_factory=list)
    claims: list[Claim] = field(default_factory=list)
    #: per-workload whole-program vs per-file comparison rows
    whole_program: list[dict] = field(default_factory=list)
    #: per-phase wall times (seconds), keyed by phase name
    phases: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def add_claim(self, build) -> None:
        """Append ``build()``'s claim, recording how long the check took."""
        t0 = perf_counter()
        claim = build()
        claim.seconds = round(perf_counter() - t0 + claim.seconds, 6)
        self.claims.append(claim)


def _collect_tables(report: ValidationReport, session: CompilationSession) -> None:
    # the suite is consumed through the workload registry (suite-v1), so
    # the tables are pinned to the same named population repro-bench runs
    from ..bench.registry import suite_specs

    for b in suite_specs():
        comp = session.compile(b.source, b.name, CompileOptions(mode=DDGMode.COMBINED))
        rep = size_report(comp.hli, b.source)
        stats = comp.total_dep_stats()
        unmapped = sum(m.unmapped for m in comp.map_stats.values())
        report.table1.append(
            {
                "benchmark": b.name,
                "is_float": b.is_float,
                "code_lines": rep.code_lines,
                "hli_bytes": rep.hli_bytes,
                "bytes_per_line": round(rep.bytes_per_line, 2),
            }
        )
        report.table2.append(
            {
                "benchmark": b.name,
                "is_float": b.is_float,
                "total_tests": stats.total_tests,
                "gcc_yes": stats.gcc_yes,
                "hli_yes": stats.hli_yes,
                "combined_yes": stats.combined_yes,
                "reduction_pct": round(100 * stats.reduction, 1),
                "unmapped_refs": unmapped,
            }
        )


def _collect_lint(report: ValidationReport, session: CompilationSession) -> None:
    """Audit every benchmark with ``hli-lint`` in all three DDG modes."""
    from ..checker.lint import lint_compilation

    def build() -> Claim:
        findings = 0
        claims = 0
        for b in BENCHMARKS:
            for mode in DDGMode:
                comp = session.compile(b.source, b.name, CompileOptions(mode=mode))
                lint = lint_compilation(comp)
                findings += len(lint.diagnostics)
                claims += sum(lint.claims_checked.values())
        return Claim(
            "hli_lint_clean",
            "hli-lint replays every consumed HLI claim with zero findings "
            "in all three dependence modes",
            findings == 0 and claims > 0,
            {"claims_replayed": claims, "findings": findings},
        )

    report.add_claim(build)


def _collect_difftest(report: ValidationReport) -> None:
    """A bounded differential-fuzz batch over the quick matrix."""
    from ..difftest.diff import build_matrix, run_differential
    from ..difftest.gen import GenConfig, generate

    def build() -> Claim:
        matrix = build_matrix("quick")
        presets = ["small", "medium", "large"]
        failures: list[str] = []
        programs = 0
        for seed in range(24):
            source = generate(seed, GenConfig.preset(presets[seed % 3]))
            res = run_differential(source, seed=seed, matrix=matrix)
            programs += 1
            failures.extend(f.format() for f in res.failures)
        return Claim(
            "difftest_batch_clean",
            "a seeded differential-fuzz batch finds no interpreter/RTL "
            "divergence across the quick config matrix",
            programs > 0 and not failures,
            {"programs": programs, "failures": failures[:5]},
        )

    report.add_claim(build)


def _collect_whole_program(
    report: ValidationReport, jobs: int = 1, partition: str = "none"
) -> None:
    """Whole-program linking gate over the multi-file workloads.

    For every workload in
    :data:`~repro.workloads.multifile.WHOLE_PROGRAM_WORKLOADS` the units
    are compiled twice — per-file (conservative extern effects) and
    linked (cross-module summaries) — and three claims are checked:
    identical execution, a *strict* reduction in call-ordering edges,
    and a clean whole-program lint (HLI009–HLI012).

    ``jobs``/``partition`` schedule the linked compile's phases (see
    :func:`~repro.driver.wpa.compile_whole_program`); the partition
    count and weight skew of each workload land in the report rows.
    """
    from ..workloads.multifile import WHOLE_PROGRAM_WORKLOADS
    from .wpa import compile_whole_program

    rows: list[dict] = []
    opts = CompileOptions(lint=True)
    for w in WHOLE_PROGRAM_WORKLOADS:
        wp = compile_whole_program(
            w.sources(), opts, whole_program=True, jobs=jobs, partition=partition
        )
        pf = compile_whole_program(w.sources(), opts, whole_program=False)
        r_wp = execute(wp.image, collect_trace=False)
        r_pf = execute(pf.image, collect_trace=False)
        s_wp, s_pf = wp.total_dep_stats(), pf.total_dep_stats()
        lint = wp.lint_report()
        plan = wp.partition_plan
        rows.append(
            {
                "workload": w.name,
                "units": len(w.units),
                "agree": (
                    r_wp.ret == r_pf.ret
                    and list(r_wp.output) == list(r_pf.output)
                    and not wp.link.diagnostics
                    and not wp.image_diagnostics
                ),
                "call_dep_pf": s_pf.call_dep,
                "call_dep_wp": s_wp.call_dep,
                "lint_findings": len(lint.diagnostics),
                "lint_claims": sum(lint.claims_checked.values()),
                "partitions": plan.n_partitions if plan is not None else 1,
                "partition_skew": round(plan.skew, 4) if plan is not None else 1.0,
            }
        )
    report.whole_program = rows
    report.add_claim(
        lambda: Claim(
            "wp_semantics_agree",
            "linked and per-file images execute identically on every "
            "multi-file workload",
            bool(rows) and all(r["agree"] for r in rows),
            {r["workload"]: r["agree"] for r in rows},
        )
    )
    report.add_claim(
        lambda: Claim(
            "wp_edges_strictly_reduced",
            "whole-program summaries delete strictly more call-ordering "
            "edges than per-file compilation on every multi-file workload",
            bool(rows) and all(r["call_dep_wp"] < r["call_dep_pf"] for r in rows),
            {r["workload"]: (r["call_dep_pf"], r["call_dep_wp"]) for r in rows},
        )
    )
    report.add_claim(
        lambda: Claim(
            "wp_lint_clean",
            "the whole-program auditor (HLI009-HLI012) replays every "
            "linked claim with zero findings",
            bool(rows)
            and all(r["lint_findings"] == 0 and r["lint_claims"] > 0 for r in rows),
            {
                "claims_replayed": sum(r["lint_claims"] for r in rows),
                "findings": sum(r["lint_findings"] for r in rows),
            },
        )
    )


def _speedup_row(t) -> dict:
    return {
        "benchmark": t.name,
        "speedup_r4600": round(t.speedup_r4600, 3),
        "speedup_r10000": round(t.speedup_r10000, 3),
        "results_match": t.results_match,
        "dynamic_insns": t.dynamic_insns,
    }


def _speedup_worker(job: tuple) -> dict:
    """Fan-out worker for :func:`parallel_map`: time one benchmark.

    Each worker builds its own session over the shared disk cache,
    under the parent's disk budget, so the four compiles inside
    ``time_benchmark`` still share one front end even across workers.
    """
    name, cache_dir, max_disk_bytes = job
    sess = CompilationSession(cache_dir=cache_dir, max_disk_bytes=max_disk_bytes)
    return _speedup_row(time_benchmark(by_name(name), sess))


def _collect_speedups(
    report: ValidationReport, session: CompilationSession, jobs: int
) -> None:
    if jobs != 1:
        cache_dir = str(session.cache_dir) if session.cache_dir else None
        rows = parallel_map(
            _speedup_worker,
            [(b.name, cache_dir, session.max_disk_bytes) for b in BENCHMARKS],
            max_workers=jobs,
        )
        session.store.sweep()
        report.speedups.extend(rows)
        return
    for b in BENCHMARKS:
        report.speedups.append(_speedup_row(time_benchmark(b, session)))


def _collect_registry(report: ValidationReport) -> None:
    """Workload-registry reproducibility: every named set must regenerate
    exactly the source digests pinned in its committed manifest."""
    from ..bench import registry as bench_registry

    def build() -> Claim:
        problems: list[str] = []
        for name in bench_registry.set_names():
            problems.extend(bench_registry.verify_manifest(name))
        return Claim(
            "bench_registry_reproducible",
            "every repro-bench workload set regenerates byte-identical "
            "sources from its pinned seeds (digest manifest match)",
            not problems,
            {
                "sets_verified": len(bench_registry.set_names()),
                "mismatches": problems[:5],
            },
        )

    report.add_claim(build)


def _check_claims(report: ValidationReport) -> None:
    def mean(rows, key, flt):
        vals = [r[key] for r in rows if r["is_float"] == flt]
        return sum(vals) / len(vals)

    int_bpl = mean(report.table1, "bytes_per_line", False)
    fp_bpl = mean(report.table1, "bytes_per_line", True)
    report.add_claim(
        lambda: Claim(
            "t1_fp_denser",
            "fp programs carry more HLI bytes/line than int programs",
            fp_bpl > int_bpl,
            {"int": round(int_bpl, 1), "fp": round(fp_bpl, 1)},
        )
    )
    int_red = mean(report.table2, "reduction_pct", False)
    fp_red = mean(report.table2, "reduction_pct", True)
    report.add_claim(
        lambda: Claim(
            "t2_substantial_reduction",
            "mean dependence-edge reduction exceeds 40% (paper: 48/54%)",
            int_red > 40 and fp_red > 40,
            {"int": round(int_red, 1), "fp": round(fp_red, 1)},
        )
    )
    report.add_claim(
        lambda: Claim(
            "t2_fp_reduces_more",
            "fp programs reduce more than int programs",
            fp_red > int_red,
        )
    )
    tomcatv = next(r for r in report.table2 if r["benchmark"] == "101.tomcatv")
    report.add_claim(
        lambda: Claim(
            "t2_tomcatv_over_80",
            "tomcatv analogue reduces >80% of edges (paper: 93%)",
            tomcatv["reduction_pct"] > 80,
            tomcatv["reduction_pct"],
        )
    )
    report.add_claim(
        lambda: Claim(
            "mapping_complete",
            "every back-end memory reference maps to an HLI item",
            all(r["unmapped_refs"] == 0 for r in report.table2),
        )
    )
    report.add_claim(
        lambda: Claim(
            "combined_is_and",
            "combined answers <= min(GCC, HLI) on every benchmark (Fig. 5)",
            all(
                r["combined_yes"] <= min(r["gcc_yes"], r["hli_yes"])
                for r in report.table2
            ),
        )
    )
    if report.speedups:
        report.add_claim(
            lambda: Claim(
                "schedules_sound",
                "GCC and HLI schedules produce identical results everywhere",
                all(r["results_match"] for r in report.speedups),
            )
        )
        report.add_claim(
            lambda: Claim(
                "no_meaningful_slowdown",
                "HLI scheduling never loses more than 3% on either machine",
                all(
                    r["speedup_r4600"] > 0.97 and r["speedup_r10000"] > 0.97
                    for r in report.speedups
                ),
            )
        )
        md = [
            r
            for r in report.speedups
            if r["benchmark"] in ("034.mdljdp2", "077.mdljsp2")
        ]
        others = [r for r in report.speedups if r not in md]
        report.add_claim(
            lambda: Claim(
                "md_codes_stand_out",
                "molecular-dynamics analogues show the largest speedups (paper's ranking)",
                min(r["speedup_r10000"] for r in md)
                >= max(0.99, sum(r["speedup_r10000"] for r in others) / len(others)),
                {"md": [r["speedup_r10000"] for r in md]},
            )
        )


def validate(
    include_speedups: bool = True,
    out_path: str = "RESULTS.json",
    include_lint: bool = True,
    trace_out: str | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
    cache_max_bytes: int | None = None,
    include_whole_program: bool = False,
    partition: str = "none",
) -> ValidationReport:
    """Run the full validation; writes ``RESULTS.json`` and returns the report.

    With ``trace_out`` set, the :mod:`repro.obs` subsystem is enabled for
    the run and a Chrome ``trace_event`` JSON profile of the whole
    validation is written to that path.

    All compilations route through one :class:`CompilationSession`
    (optionally disk-backed via ``cache_dir``), so the tables, lint, and
    timing phases share front-end artifacts instead of re-parsing each
    benchmark up to seven times.  ``jobs`` fans the speedup phase out
    over forked children (``0`` = one per core) and, together
    with ``partition``, schedules the whole-program phase's parallel
    back end.
    """
    report = ValidationReport()
    session = CompilationSession(cache_dir=cache_dir, max_disk_bytes=cache_max_bytes)

    def phase(name: str, fn) -> None:
        t0 = perf_counter()
        with obs_trace.span(f"validate.{name}"):
            fn()
        report.phases[name] = round(perf_counter() - t0, 3)

    with obs.enabled_scope(trace_out is not None):
        with obs_trace.span("driver.validate"):
            print("collecting Table 1 / Table 2 statistics ...", flush=True)
            phase("tables", lambda: _collect_tables(report, session))
            if include_speedups:
                print(
                    "running speedup measurements (4 executions per benchmark) ...",
                    flush=True,
                )
                phase("speedups", lambda: _collect_speedups(report, session, jobs))
            phase("claims", lambda: _check_claims(report))
            print("verifying workload-registry digest manifests ...", flush=True)
            phase("registry", lambda: _collect_registry(report))
            if include_lint:
                print("replaying HLI claims with hli-lint (3 modes) ...", flush=True)
                phase("lint", lambda: _collect_lint(report, session))
            print("running differential-fuzz batch (24 programs) ...", flush=True)
            phase("difftest", lambda: _collect_difftest(report))
            if include_whole_program:
                print(
                    "linking multi-file workloads (whole-program vs per-file) ...",
                    flush=True,
                )
                phase(
                    "whole_program",
                    lambda: _collect_whole_program(report, jobs, partition),
                )
    payload = {
        "table1": report.table1,
        "table2": report.table2,
        "speedups": report.speedups,
        "whole_program": report.whole_program,
        "claims": [asdict(c) for c in report.claims],
        "phase_seconds": report.phases,
        "session_cache": session.stats.to_dict(),
        "elapsed_seconds": round(perf_counter() - report.started, 1),
    }
    with open(out_path, "w") as f:
        json.dump(payload, f, indent=2)
    print(f"\nwrote {out_path}")
    if trace_out is not None:
        with open(trace_out, "w") as f:
            json.dump(obs_export.chrome_trace(), f)
        print(f"wrote {trace_out}")
    for c in report.claims:
        mark = "PASS" if c.passed else "FAIL"
        extra = f"  [{c.measured}]" if c.measured is not None else ""
        print(f"  {mark}  {c.name}: {c.description}{extra}")
    print(f"\noverall: {'ALL CLAIMS PASS' if report.all_passed else 'FAILURES PRESENT'}")
    return report


def main(argv: list[str] | None = None) -> int:
    """CI gate: exit 0 only when every claim passes."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.driver.validate",
        description="Reproduce the paper's tables and verify every shape claim.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the speedup measurements (fastest meaningful gate)",
    )
    parser.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the hli-lint claim-replay gate",
    )
    parser.add_argument(
        "--whole-program",
        action="store_true",
        help="also link the multi-file workloads and check the "
        "whole-program claims (semantic agreement, strict edge "
        "reduction, HLI009-HLI012 lint)",
    )
    parser.add_argument(
        "--out",
        default="RESULTS.json",
        metavar="PATH",
        help="where to write the machine-readable report (default: %(default)s)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="enable repro.obs instrumentation and write a Chrome "
        "trace_event JSON profile of the validation run to PATH",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan the speedup phase (and, with --partition, the "
        "whole-program back end) out over N worker processes "
        "(0 = one per core; default: %(default)s, serial)",
    )
    parser.add_argument(
        "--partition",
        choices=("none", "1to1", "balanced"),
        default="none",
        metavar="MODE",
        help="partition mode for the whole-program phase's parallel "
        "back end: none (serial), 1to1, or balanced "
        "(default: %(default)s; needs --whole-program and --jobs > 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="back the compilation session with an on-disk artifact "
        "cache shared across phases, workers, and reruns",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="LRU-evict the disk cache above N bytes "
        "(default: unbounded; requires --cache-dir)",
    )
    args = parser.parse_args(argv)
    if args.cache_max_bytes is not None and not args.cache_dir:
        parser.error("--cache-max-bytes requires --cache-dir")
    if args.partition != "none" and not args.whole_program:
        parser.error("--partition requires --whole-program")
    report = validate(
        include_speedups=not args.quick,
        out_path=args.out,
        include_lint=not args.no_lint,
        trace_out=args.trace_out,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        include_whole_program=args.whole_program,
        partition=args.partition,
    )
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
