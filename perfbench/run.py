"""Run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run from the root of a checkout: the program is imported from ``src/``.
The report names every metric with its unit and sample count; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  A traced run
also writes its spans to ``.perfbench-out/``.  Exit status: 0 when the
run completed, 1 when a workload's inputs do not match their pinned
digests, 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


def _report(result, metrics: dict) -> None:
    wl = result.workload
    print(f"perfbench {wl.name}: seed={result.seed} passes={result.passes} "
          f"attempted={result.attempted} failed={result.failed}")
    print(f"  op: {wl.op}")
    print(f"  {'error_rate':34s} {result.error_rate:12.6g} ratio  "
          f"({result.failed}/{result.attempted})")
    for failure in result.failures[:10]:
        print(f"    failed {failure}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "setup_s":
            note = (f"median of {len(result.setups)} set-ups, "
                    f"unscaled {result.setup_s(scaled=False):.6g}")
        elif name == "op_ms":
            note = (f"geomean over operations of each one's median, "
                    f"{len(result.samples)} samples, unscaled {result.op_ms(scaled=False):.6g}")
        print(f"  {name:34s} {value:12.6g} {unit:8s} {note}")
    if "op_ms" in metrics:
        for kind, times in sorted(result.kinds().items()):
            note = f"{len(times)} samples, median {statistics.median(times):.6g}"
            t = harness.tail(times)
            if t is not None:
                note += f", p{t[0]:g} {t[1]:.6g}"
            print(f"  {kind:34s} {result.op_ms(kind):12.6g} {'ms':8s} {note}")
        for name, value in wl.extra_quality().items():
            print(f"  {name:34s} {value:12.6g}")


def _run_one(args) -> int:
    result = harness.run(
        workloads.WORKLOADS[args.workload](), args.seed, args.seconds,
        bool(args.trace), OUT,
    )
    metrics = result.per_layer() if args.trace else result.end_to_end()
    _report(result, metrics)
    if result.tracer is not None:
        result.tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        return _run_all(args) if args.workload == "all" else _run_one(args)
    except workloads.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    # The program and this package are imported from the checkout; the
    # script's own directory leaves sys.path so no module here shadows
    # the standard library.
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from perfbench import harness, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
