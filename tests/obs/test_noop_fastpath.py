"""Satellite: the disabled subsystem must be near-free.

Two complementary checks, both deterministic (no wall-clock comparison
of two full compiles, which flakes on loaded CI machines):

1. **Zero allocation / zero mutation** — compiling the entire benchmark
   suite with obs disabled allocates no ``Span`` objects and applies no
   registry mutations.  This proves every instrumentation point hits the
   boolean fast path before doing any work.

2. **<5% overhead bound** — measure the disabled per-call cost of
   ``trace.span()`` / ``metrics.inc()`` directly (hundreds of ns each),
   count how many instrumentation calls a traced suite compile actually
   makes (allocations + mutations), and assert

       calls x per_call_cost  <  5% of the disabled compile time.

   This bounds the worst-case overhead analytically instead of racing
   two timers against scheduler noise.
"""

from __future__ import annotations

from time import perf_counter

from repro import CompileOptions, compile_source, obs
from repro.backend.ddg import DDGMode
from repro.machine.executor import execute
from repro.machine.memory import r4600_hierarchy, r10000_hierarchy
from repro.machine.pipeline import R4600Model
from repro.machine.superscalar import R10000Model
from repro.obs import metrics, trace
from repro.workloads.suite import BENCHMARKS, by_name


def _compile_suite() -> float:
    t0 = perf_counter()
    for spec in BENCHMARKS:
        compile_source(spec.source, spec.name, CompileOptions(mode=DDGMode.COMBINED))
    return perf_counter() - t0


class TestZeroWorkWhenDisabled:
    def test_suite_compile_allocates_no_spans_and_mutates_nothing(self):
        assert not obs.is_enabled()
        spans_before = trace.allocated_spans()
        muts_before = metrics.mutations()
        _compile_suite()
        assert trace.allocated_spans() == spans_before
        assert metrics.mutations() == muts_before
        assert trace.roots() == []
        assert metrics.counters() == {}
        assert metrics.gauges() == {}
        assert metrics.histograms() == {}

    def test_timing_allocates_no_spans_and_mutates_nothing(self):
        spec = by_name("wc")
        comp = compile_source(spec.source, spec.name, CompileOptions(mode=DDGMode.COMBINED))
        res = execute(comp.rtl, spec.entry, input_text=spec.input_text)
        assert not obs.is_enabled()
        spans_before = trace.allocated_spans()
        muts_before = metrics.mutations()
        for model in (
            R4600Model(),
            R10000Model(),
            R4600Model(cache=r4600_hierarchy()),
            R10000Model(cache=r10000_hierarchy()),
        ):
            assert model.time(res.trace).cycles > 0
        assert trace.allocated_spans() == spans_before
        assert metrics.mutations() == muts_before
        assert trace.roots() == []
        assert metrics.counters() == {}

    def test_disabled_span_call_returns_singleton_not_fresh_object(self):
        before = trace.allocated_spans()
        spans = [trace.span("x", k=i) for i in range(1000)]
        assert trace.allocated_spans() == before
        assert all(s is spans[0] for s in spans)


class TestOverheadBound:
    N = 200_000

    def _per_call_cost(self, fn) -> float:
        t0 = perf_counter()
        for _ in range(self.N):
            fn()
        return (perf_counter() - t0) / self.N

    def test_instrumentation_calls_cost_under_five_percent(self):
        # 1. per-call disabled cost of the two hot entry points
        span_cost = self._per_call_cost(lambda: trace.span("backend.schedule"))
        inc_cost = self._per_call_cost(lambda: metrics.inc("ddg.tests"))
        per_call = max(span_cost, inc_cost)

        # 2. how many instrumentation events does a traced suite make?
        spans0, muts0 = trace.allocated_spans(), metrics.mutations()
        with obs.enabled_scope():
            for spec in BENCHMARKS:
                compile_source(
                    spec.source, spec.name, CompileOptions(mode=DDGMode.COMBINED)
                )
        calls = (trace.allocated_spans() - spans0) + (metrics.mutations() - muts0)
        obs.disable()
        obs.reset()

        # 3. baseline: the same suite compiled with obs off
        baseline = _compile_suite()

        worst_case_overhead = calls * per_call
        assert calls > 0
        assert worst_case_overhead < 0.05 * baseline, (
            f"{calls} instrumentation calls x {per_call * 1e9:.0f}ns "
            f"= {worst_case_overhead * 1e3:.2f}ms, which exceeds 5% of the "
            f"{baseline * 1e3:.0f}ms disabled compile"
        )
