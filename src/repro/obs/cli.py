"""``repro-stats`` — compile a workload with instrumentation on and dump
traces/metrics.

Usage::

    repro-stats --suite --format chrome --out trace.json
    repro-stats --benchmark wc --benchmark 101.tomcatv --format stats
    repro-stats file.c --execute --format text
    python -m repro.obs.cli --suite --format stats   # equivalent module form

Formats:

* ``chrome`` — Chrome ``trace_event`` JSON (open in ``chrome://tracing``
  or https://ui.perfetto.dev);
* ``stats``  — flat JSON: every counter/gauge/histogram plus per-span
  wall-time aggregates;
* ``text``   — human-readable span tree (default).

Exit codes: ``0`` success; ``2`` bad arguments or front-end compile
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .. import obs
from ..backend.ddg import DDGMode
from ..frontend.errors import CompileError
from ..workloads.suite import BENCHMARKS, BenchmarkSpec, by_name
from . import export, trace

_MODES = {"gcc": DDGMode.GCC, "hli": DDGMode.HLI, "combined": DDGMode.COMBINED}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-stats",
        description="Compile a workload with tracing/metrics enabled and "
        "dump the recorded spans and counters.",
    )
    p.add_argument("files", nargs="*", help="MiniC source files to compile")
    p.add_argument(
        "--suite",
        action="store_true",
        help="compile every built-in benchmark (the paper's Tables 1/2 suite)",
    )
    p.add_argument(
        "--benchmark",
        action="append",
        default=[],
        metavar="NAME",
        help="compile one built-in benchmark by name (repeatable)",
    )
    p.add_argument(
        "--mode",
        choices=sorted(_MODES),
        default="combined",
        help="dependence mode for the scheduler's DDG (default: %(default)s)",
    )
    p.add_argument("--cse", action="store_true", help="run local CSE")
    p.add_argument("--licm", action="store_true", help="run LICM")
    p.add_argument(
        "--unroll",
        type=int,
        default=1,
        metavar="N",
        help="unroll innermost counted loops by N (default: off)",
    )
    p.add_argument("--lint", action="store_true", help="run hli-lint after compiling")
    p.add_argument(
        "--execute",
        action="store_true",
        help="also execute each workload and time it on both machine models",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="route compiles through a disk-backed CompilationSession; "
        "the session.cache.* counters (file/function/back-end tiers) "
        "then appear in --format stats",
    )
    p.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="LRU-evict the disk cache above N bytes (default: unbounded; "
        "requires --cache-dir)",
    )
    p.add_argument(
        "--format",
        choices=("chrome", "stats", "text"),
        default="text",
        help="output format (default: %(default)s)",
    )
    p.add_argument(
        "--out",
        default="-",
        metavar="PATH",
        help="output file, '-' for stdout (default: stdout)",
    )
    return p


def _workloads(args: argparse.Namespace) -> list[BenchmarkSpec]:
    specs: list[BenchmarkSpec] = []
    if args.suite:
        specs.extend(BENCHMARKS)
    for name in args.benchmark:
        specs.append(by_name(name))
    for path in args.files:
        with open(path) as f:
            source = f.read()
        specs.append(
            BenchmarkSpec(name=path, suite="file", source=source, is_float=False)
        )
    return specs


def run_workloads(specs: list[BenchmarkSpec], args: argparse.Namespace) -> None:
    """Compile (and optionally execute/time) each spec with obs enabled."""
    from ..driver.compile import CompileOptions, compile_source

    options = CompileOptions(
        mode=_MODES[args.mode],
        cse=args.cse,
        licm=args.licm,
        unroll=args.unroll,
        lint=args.lint,
        trace=True,
    )
    if args.cache_dir:
        from ..driver.session import CompilationSession

        session = CompilationSession(
            cache_dir=args.cache_dir, max_disk_bytes=args.cache_max_bytes
        )
        compile_fn = session.compile
    else:
        compile_fn = lambda src, name, opts: compile_source(src, name, opts)  # noqa: E731
    for spec in specs:
        comp = compile_fn(spec.source, spec.name, options)
        if args.execute:
            from ..machine.executor import execute
            from ..machine.pipeline import R4600Model
            from ..machine.superscalar import R10000Model

            with trace.span("machine.run", benchmark=spec.name):
                res = execute(comp.rtl, spec.entry, input_text=spec.input_text)
                for model in (R4600Model(), R10000Model()):
                    model.time(res.trace)


def render(fmt: str) -> str:
    if fmt == "chrome":
        return json.dumps(export.chrome_trace(), indent=2)
    if fmt == "stats":
        return json.dumps(export.stats_snapshot(), indent=2)
    return export.text_tree()


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.unroll < 1:
        parser.error("--unroll must be >= 1")
    if args.cache_max_bytes is not None and not args.cache_dir:
        parser.error("--cache-max-bytes requires --cache-dir")
    obs.reset()
    try:
        specs = _workloads(args)
        if not specs:
            parser.error("nothing to compile: pass files, --suite, or --benchmark")
        with obs.enabled_scope():
            run_workloads(specs, args)
    except (OSError, KeyError, CompileError) as exc:
        print(f"repro-stats: error: {exc}", file=sys.stderr)
        return 2

    text = render(args.format)
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        print(
            f"repro-stats: wrote {args.format} output for {len(specs)} "
            f"workload(s) to {args.out}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
