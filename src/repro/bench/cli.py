"""``repro-bench`` — run a named workload set and gate on baselines.

Examples::

    repro-bench --list
    repro-bench --set quick-v1 --out BENCH_quick.json
    repro-bench --set suite-v1 --format full --iterations 5
    repro-bench --set quick-v1 --gate            # CI regression gate
    repro-bench --verify-manifests               # digest reproducibility

Exit codes: ``0`` success / all gates pass, ``1`` gate regression or
manifest mismatch, ``2`` usage or evaluation error (see
:mod:`repro.bench.gates`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from . import gates as gates_mod
from . import registry
from .runner import PATHS, WPA_BENCH_JOBS, run_set

#: default location of committed baseline files, relative to the
#: repository root (where CI invokes the CLI from)
BASELINE_DIR = Path("benchmarks") / "baselines"


def _default_baseline(set_name: str) -> Path:
    return BASELINE_DIR / f"{set_name}.json"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run a named, versioned benchmark set through the "
        "session / incremental / decode / wpa paths with statistical "
        "reporting and regression gates.",
    )
    parser.add_argument("--set", dest="set_name", metavar="NAME",
                        help="workload set to run (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list registered workload sets and exit")
    parser.add_argument("--verify-manifests", action="store_true",
                        help="regenerate every set and verify the pinned "
                        "source digests; exit 1 on any mismatch")
    parser.add_argument("--iterations", type=int, default=3, metavar="N",
                        help="timed iterations per measurement (default %(default)s)")
    parser.add_argument("--warmup", type=int, default=1, metavar="N",
                        help="discarded warmup iterations (default %(default)s)")
    parser.add_argument("--paths", default=",".join(PATHS), metavar="P1,P2",
                        help="comma-separated compilation paths to exercise "
                        f"(default: %(default)s; choices: {', '.join(PATHS)})")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="processes for the wpa path's partitioned arm, "
                        "the parent included (default: 4, the parent plus 3 "
                        "workers, also on machines with fewer cores)")
    parser.add_argument("--format", default="brief",
                        choices=("brief", "full", "csv", "json"),
                        help="stdout rendering (default %(default)s)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the full JSON report to PATH")
    parser.add_argument("--gate", nargs="?", const="", default=None,
                        metavar="BASELINE",
                        help="evaluate regression gates from BASELINE (default: "
                        "benchmarks/baselines/<set>.json); exit 1 on regression")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-program progress lines")
    args = parser.parse_args(argv)

    if args.list:
        for name in registry.set_names():
            s = registry.get_set(name)
            progs = registry.materialize(name)
            print(f"{name:<18} {len(progs):>4} programs  "
                  f"[{', '.join(s.profiles)}]  {s.description}")
        return 0

    if args.verify_manifests:
        failures = 0
        for name in registry.set_names():
            problems = registry.verify_manifest(name)
            status = "reproducible" if not problems else "MISMATCH"
            print(f"{name}: {status}")
            for p in problems:
                print(f"  {p}")
            failures += len(problems)
        return gates_mod.EXIT_REGRESSION if failures else gates_mod.EXIT_OK

    if not args.set_name:
        parser.error("--set NAME required (or --list / --verify-manifests)")
    if args.iterations < 1 or args.warmup < 0:
        parser.error("--iterations must be >= 1 and --warmup >= 0")

    paths = tuple(p.strip() for p in args.paths.split(",") if p.strip())
    if not paths:
        parser.error("--paths selects no path")
    if args.jobs is not None and "wpa" not in paths:
        parser.error("--jobs requires the wpa path in --paths")
    try:
        registry.get_set(args.set_name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return gates_mod.EXIT_ERROR

    progress = None if args.quiet else (
        lambda msg: print(f"  {msg}", file=sys.stderr, flush=True)
    )
    try:
        report = run_set(
            args.set_name,
            iterations=args.iterations,
            warmup=args.warmup,
            paths=paths,
            progress=progress,
            wpa_jobs=args.jobs if args.jobs is not None else WPA_BENCH_JOBS,
        )
    except (ValueError, RuntimeError) as exc:
        print(f"repro-bench: {exc}", file=sys.stderr)
        return gates_mod.EXIT_ERROR

    exit_code = gates_mod.EXIT_OK
    if args.gate is not None:
        baseline = args.gate or str(_default_baseline(args.set_name))
        try:
            gate_set, gate_list = gates_mod.load_gates(baseline)
            if gate_set != report.set_name:
                raise gates_mod.GateError(
                    f"baseline {baseline} is for set {gate_set!r}, "
                    f"not {report.set_name!r}"
                )
            results = gates_mod.evaluate(report, gate_list)
        except gates_mod.GateError as exc:
            print(f"repro-bench: {exc}", file=sys.stderr)
            return gates_mod.EXIT_ERROR
        report.gates = [r.to_dict() for r in results]
        if any(not r.passed for r in results):
            exit_code = gates_mod.EXIT_REGRESSION

    if args.out:
        Path(args.out).write_text(report.to_json())

    if args.format == "brief":
        print(report.render_brief())
    elif args.format == "full":
        print(report.render_full())
    elif args.format == "csv":
        sys.stdout.write(report.render_csv())
    else:
        sys.stdout.write(report.to_json())

    if args.gate is not None:
        failed = [g for g in report.gates if not g["passed"]]
        if failed:
            print(f"\nrepro-bench: {len(failed)} gate(s) FAILED", file=sys.stderr)
        else:
            print(f"\nrepro-bench: all {len(report.gates)} gate(s) pass",
                  file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
