"""Runs one workload: set-up, timed passes, checks, and the metrics.

A run sets the workload up :data:`SETUP_REPEATS` times and reports the
median as ``setup_s``.  It then runs whole passes over the workload's
operations, each pass in a seeded order, until ``seconds`` have elapsed
at the end of a pass, so every run covers every operation the same
number of times.  Every operation is checked and counts towards
``attempted``/``failed``.

Each set-up and each operation is timed between two probes
(:func:`perfbench.clock.timed`) and reported in reference seconds, so a
drift in host speed between runs cancels out.

``op_ms`` is the geometric mean over the workload's operations of each
one's median reference time, so every operation weighs the same however
long it takes, and a workload may mix kinds of operation.  The report
adds per kind the median, the highest percentile with at least ten
samples beyond it and the sample count, and the figures unscaled.
Per-layer times are unscaled.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

from repro.bench.stats import geomean, percentile

from .clock import Timing, timed
from .tracing import Tracer, self_times
from .workloads import Workload

SETUP_REPEATS = 3

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(samples: list[float]) -> Optional[tuple[float, float]]:
    """The highest candidate percentile with at least ten samples beyond
    it, as ``(p, value)``; ``None`` when there are too few samples."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n - 1 - math.ceil(p / 100.0 * (n - 1)) >= 10:
            return p, percentile(samples, p)
    return None


@dataclass
class Sample:
    op: str
    kind: str
    timing: Timing


@dataclass
class RunResult:
    workload: Workload
    seed: int
    setups: list[Timing]
    #: every successful operation
    samples: list[Sample]
    attempted: int
    failed: int
    failures: list[str]
    passes: int
    peak_rss_mb: float
    tracer: Optional[Tracer] = None

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.samples)

    def op_ms(self, kind: Optional[str] = None, scaled: bool = True) -> float:
        """Geometric mean over operations (of ``kind``, or all) of each
        one's median time, in ms."""
        by_op: dict[str, list[float]] = {}
        for s in self.samples:
            if kind is None or s.kind == kind:
                t = s.timing.reference_s if scaled else s.timing.seconds
                by_op.setdefault(s.op, []).append(t)
        if not by_op:
            return 0.0
        return 1000.0 * geomean([statistics.median(v) for v in by_op.values()])

    def setup_s(self, scaled: bool = True) -> float:
        return statistics.median(
            t.reference_s if scaled else t.seconds for t in self.setups
        )

    def kinds(self) -> dict[str, list[float]]:
        """Every sample's reference time in ms, per kind of operation."""
        out: dict[str, list[float]] = {}
        for s in self.samples:
            out.setdefault(s.kind, []).append(1000.0 * s.timing.reference_s)
        return out

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        metrics = {
            "setup_s": (self.setup_s(), "s"),
            "op_ms": (self.op_ms(), "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }
        quality = self.workload.quality()
        metrics["ddg_reduction_pct"] = (quality["ddg_reduction_pct"], "%")
        metrics["hli_bytes"] = (quality["hli_bytes"], "B")
        return metrics

    def per_layer(self) -> dict[str, tuple[float, str]]:
        assert self.tracer is not None
        return layer_metrics(self.tracer, self.workload.extra_quality())


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: Path,
    limit: Optional[int] = None,
    before_op=None,
) -> RunResult:
    """Set up ``workload`` and measure it.  ``before_op(workload, op)``
    runs untimed before each operation (tests use it to inject faults)."""
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            attempt = tmp / f"setup-{i}"
            attempt.mkdir()
            _, timing = timed(lambda: workload.setup(attempt, limit))
            setups.append(timing)
            if i + 1 < SETUP_REPEATS:
                shutil.rmtree(attempt)
        gc.collect()
        gc.freeze()
        try:
            return _measure(workload, seed, seconds, trace, setups, before_op)
        finally:
            gc.unfreeze()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(workload, seed, seconds, trace, setups, before_op) -> RunResult:
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    attempted = failed = 0
    failures: list[str] = []
    samples: list[Sample] = []
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        order = workload.ops()
        rng.shuffle(order)
        for op in order:
            attempted += 1
            if tracer is not None:
                tracer.op = attempted
            gc.collect()
            error, timing = _one(workload, op, rng, tracer, before_op)
            if error is not None:
                failed += 1
                failures.append(f"{op}: {error}")
            else:
                samples.append(Sample(op, workload.kind(op), timing))
        passes += 1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return RunResult(
        workload=workload,
        seed=seed,
        setups=setups,
        samples=samples,
        attempted=attempted,
        failed=failed,
        failures=failures,
        passes=passes,
        peak_rss_mb=peak,
        tracer=tracer,
    )


def _one(workload, op, rng, tracer, before_op) -> tuple[Optional[str], Optional[Timing]]:
    """Run, check and (when tracing) replay one operation."""
    try:
        if before_op is not None:
            before_op(workload, op)
        arg = workload.prepare(op, rng)
        out, timing = workload.timed_run(arg)
        error = workload.check(arg, out)
        if error is None:
            workload.record(op, arg, out)
            if tracer is not None:
                gc.collect()
                workload.replay(arg, out, tracer)
                tracer.count("op.real_s", timing.seconds)
        return error, timing
    except Exception as exc:  # a failed operation must not end the run
        return f"{type(exc).__name__}: {exc}", None
    finally:
        workload.after()


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer figures over the successful operations: self time and
    counts per operation, rates, the share of real operation time no layer
    span covers, and the traced replay's time relative to the untraced call."""
    ops = {op for op, name, _value in tracer.counts if name == "op.real_s"}
    n = max(len(ops), 1)
    self_s = self_times(tracer.spans, ops)
    counts: dict[str, float] = {}
    per_op: dict[int, dict[str, float]] = {}
    for op, name, value in tracer.counts:
        if op in ops:
            counts[name] = counts.get(name, 0.0) + value
            mine = per_op.setdefault(op, {})
            mine[name] = mine.get(name, 0.0) + value

    def sec(span: str) -> tuple[float, str]:
        return self_s.get(span, 0.0) / n, "s"

    def each(name: str, unit: str = "count") -> tuple[float, str]:
        return counts.get(name, 0.0) / n, unit

    def mean(name: str, unit: str) -> tuple[float, str]:
        """Over the operations that record ``name`` only."""
        values = [c[name] for c in per_op.values() if name in c]
        return ratio(sum(values), len(values)), unit

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    def rate(insns: str, span: str) -> tuple[float, str]:
        return ratio(counts.get(insns, 0.0), self_s.get(span, 0.0)) / 1e6, "Minsn/s"

    real = counts.get("op.real_s", 0.0)
    layers = sum(v for k, v in self_s.items() if k != "op")
    replayed = sum(s.end - s.start for s in tracer.spans if s.name == "op" and s.op in ops)
    cold = [c for c in per_op.values() if "driver.plain_compile_s" in c]
    edits = [c for c in per_op.values() if "driver.incremental.predicted_fns" in c]
    frontend_s = self_s.get("frontend.parse", 0.0) + self_s.get("frontend.semantic", 0.0)
    m = {
        "frontend.parse_s": sec("frontend.parse"),
        "frontend.semantic_s": sec("frontend.semantic"),
        "frontend.lines_per_s": (ratio(counts.get("frontend.lines", 0.0), frontend_s), "1/s"),
        "analysis.interproc_s": sec("analysis.interproc"),
        "analysis.itemgen_s": sec("analysis.itemgen"),
        "analysis.items": each("analysis.items"),
        "hli.encode_s": sec("hli.encode"),
        "hli.query_build_s": sec("hli.query_build"),
        "backend.lower_s": sec("backend.lower"),
        "backend.map_s": sec("backend.map"),
        "backend.opt_s": sec("backend.opt"),
        "backend.schedule_s": sec("backend.schedule"),
        "backend.rtl_insns": each("backend.rtl_insns"),
        "backend.ddg_edges_kept": each("backend.ddg_edges_kept"),
        "machine.execute_s": sec("machine.execute"),
        "machine.r4600_s": sec("machine.r4600"),
        "machine.r10000_s": sec("machine.r10000"),
        "machine.dyn_insns": each("machine.dyn_insns"),
        "machine.execute_minsn_per_s": rate("machine.dyn_insns", "machine.execute"),
        "machine.r4600_minsn_per_s": rate("machine.r4600_insns", "machine.r4600"),
        "machine.r10000_minsn_per_s": rate("machine.r10000_insns", "machine.r10000"),
        "binfmt.rtl_encode_s": sec("binfmt.rtl_encode"),
        "binfmt.rtl_decode_s": sec("binfmt.rtl_decode"),
        "binfmt.blob_bytes": each("binfmt.blob_bytes", "B"),
        "driver.session.cold_overhead_ms": (
            1000.0 * ratio(
                sum(c["op.real_s"] - c["driver.plain_compile_s"] for c in cold), len(cold)
            ),
            "ms",
        ),
        "driver.session.be_hit_ratio": (
            ratio(counts.get("driver.be_hits", 0.0), counts.get("driver.be_lookups", 0.0)),
            "ratio",
        ),
        "driver.session.fe_decodes": each("driver.session.fe_decodes"),
        "driver.incremental.function_keys_s": sec("driver.incremental.function_keys"),
        "driver.incremental.recompiled_fns": each("driver.incremental.recompiled_fns"),
        "driver.incremental.recompile_ratio": (
            ratio(
                sum(c.get("driver.incremental.recompiled_fns", 0.0) for c in edits),
                sum(c["driver.incremental.predicted_fns"] for c in edits),
            ),
            "ratio",
        ),
        "driver.pool.parallel_map_s": sec("driver.pool.parallel_map"),
        "driver.pool.compile_partitions_s": sec("driver.pool.compile_partitions"),
        "driver.pool.fallbacks": each("driver.pool.fallbacks"),
        "linker.analyze_unit_s": sec("linker.analyze_unit"),
        "linker.link_s": sec("linker.link"),
        "linker.partition_s": sec("linker.partition"),
        "linker.adapter_s": sec("linker.adapter"),
        "linker.image_s": sec("linker.image"),
        "linker.partition_skew": mean("linker.partition_skew", "ratio"),
        "linker.scc_iterations": each("linker.scc_iterations"),
        "trace.unattributed_share": (ratio(real - layers, real), "ratio"),
        "trace.overhead_ratio": (ratio(replayed, real) - 1.0 if real else 0.0, "ratio"),
    }
    for name, unit in (
        ("machine.speedup_r4600_geomean", "ratio"),
        ("machine.speedup_r10000_geomean", "ratio"),
        ("machine.speedup_min", "ratio"),
        ("linker.call_edges_deleted_pct", "%"),
    ):
        m[name] = (extra.get(name, 0.0), unit)
    return m
