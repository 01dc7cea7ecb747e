"""End-to-end: compiling with ``trace=True`` records the full span tree
and the counter catalogue documented in docs/OBSERVABILITY.md."""

from __future__ import annotations

import pytest

from repro import CompileOptions, compile_source, obs
from repro.backend.ddg import DDGMode
from repro.obs import metrics, trace
from tests.conftest import FIG2_SOURCE, SIMPLE_MAIN


def _compile_traced(source: str, name: str, **opt_kwargs):
    opts = CompileOptions(trace=True, **opt_kwargs)
    result = compile_source(source, name, opts)
    return result


class TestSpanTree:
    def test_compile_records_pipeline_span_tree(self):
        _compile_traced(FIG2_SOURCE, "fig2.c", mode=DDGMode.COMBINED)
        names = {s.name for s in trace.iter_spans()}
        assert {
            "driver.compile",
            "frontend.parse_and_check",
            "frontend.parse",
            "frontend.semantic",
            "analysis.build_hli",
            "analysis.points_to",
            "analysis.refmod",
            "analysis.unit",
            "analysis.itemgen",
            "analysis.tblconst",
            "backend.lowering",
            "backend.mapping",
            "backend.schedule",
        } <= names
        (root,) = trace.roots()
        assert root.name == "driver.compile"
        assert root.attrs["file"] == "fig2.c"
        assert root.attrs["mode"] == "combined"
        assert root.dur is not None and root.dur > 0

    def test_optimization_spans_when_passes_enabled(self):
        _compile_traced(
            SIMPLE_MAIN,
            "simple.c",
            mode=DDGMode.COMBINED,
            cse=True,
            licm=True,
        )
        names = {s.name for s in trace.iter_spans()}
        assert {"pm.pass", "backend.cse", "backend.licm"} <= names
        # every stage of the fixed pipeline runs under a pm.pass span
        ran = {
            s.attrs["pass"] for s in trace.iter_spans() if s.name == "pm.pass"
        }
        assert {"parse", "hli-build", "lower", "map", "cse", "licm", "schedule"} <= ran

    def test_trace_left_disabled_afterwards(self):
        _compile_traced(SIMPLE_MAIN, "simple.c")
        assert not obs.is_enabled()


class TestSessionSpans:
    def test_backend_store_span_counts_stored_blobs(self):
        from repro.driver.session import CompilationSession

        comp = CompilationSession().compile(
            FIG2_SOURCE, "fig2.c", CompileOptions(trace=True)
        )
        (store,) = [
            s for s in trace.iter_spans() if s.name == "session.cache.store_backend"
        ]
        assert store.attrs["stored"] == len(comp.rtl.functions) > 0
        assert store.dur is not None

    def test_untraced_compile_records_no_span(self):
        from repro.driver.session import CompilationSession

        before = trace.allocated_spans()
        CompilationSession().compile(FIG2_SOURCE, "fig2.c", CompileOptions())
        assert list(trace.iter_spans()) == []
        assert trace.allocated_spans() == before


class TestCounters:
    def test_frontend_and_lowering_counters(self):
        _compile_traced(FIG2_SOURCE, "fig2.c")
        c = metrics.counters()
        assert c["frontend.functions"] == 1
        assert c["frontend.source_lines"] > 0
        assert c["lowering.functions"] == 1
        assert c["lowering.insns"] > 0
        assert c["analysis.items"] > 0
        assert c["analysis.regions"] > 0
        assert c["map.mapped"] > 0

    def test_hli_query_verdict_counters(self):
        _compile_traced(FIG2_SOURCE, "fig2.c", mode=DDGMode.COMBINED)
        c = metrics.counters()
        equiv = {k: v for k, v in c.items() if k.startswith("hli.query.get_equiv_acc.")}
        assert equiv, "HLI-mode scheduling must issue get_equiv_acc queries"
        assert set(equiv) <= {
            "hli.query.get_equiv_acc.definite",
            "hli.query.get_equiv_acc.maybe",
            "hli.query.get_equiv_acc.none",
        }

    def test_ddg_edge_counters_per_mode(self):
        for mode in (DDGMode.GCC, DDGMode.HLI, DDGMode.COMBINED):
            obs.reset()
            _compile_traced(FIG2_SOURCE, "fig2.c", mode=mode)
            c = metrics.counters()
            assert c["ddg.tests"] > 0
            kept = c.get(f"ddg.edges.kept.{mode.value}", 0)
            deleted = c.get(f"ddg.edges.deleted.{mode.value}", 0)
            assert kept > 0
            # HLI/COMBINED prune edges GCC keeps; GCC itself deletes none.
            if mode is DDGMode.GCC:
                assert deleted == 0
            assert c["sched.blocks"] > 0

    def test_combined_deletes_edges_fig2(self):
        _compile_traced(FIG2_SOURCE, "fig2.c", mode=DDGMode.COMBINED)
        assert metrics.counters().get("ddg.edges.deleted.combined", 0) > 0

    def test_ready_list_histogram_recorded(self):
        _compile_traced(FIG2_SOURCE, "fig2.c", mode=DDGMode.COMBINED)
        h = metrics.histograms()["sched.ready_list_len"]
        assert h.count > 0
        assert h.max >= 1


class TestMaintenanceCounters:
    def test_unroll_emits_maintenance_mutations(self):
        _compile_traced(
            SIMPLE_MAIN,
            "simple.c",
            mode=DDGMode.COMBINED,
            unroll=2,
        )
        c = metrics.counters()
        assert c.get("unroll.loops_unrolled", 0) > 0
        maint = {k: v for k, v in c.items() if k.startswith("hli.maintenance.")}
        assert maint, "unrolling must route through HLI maintenance ops"


class TestMachineCounters:
    def test_execute_and_time_record_machine_metrics(self):
        from repro.driver.timing import time_benchmark
        from repro.workloads.suite import BenchmarkSpec

        spec = BenchmarkSpec(
            name="simple", suite="unit", source=SIMPLE_MAIN, is_float=False
        )
        with obs.enabled_scope():
            time_benchmark(spec)
        names = {s.name for s in trace.iter_spans()}
        assert {"driver.timing", "driver.timing.run", "machine.execute", "machine.time"} <= names
        c = metrics.counters()
        assert c["machine.dynamic_insns"] > 0
        assert c["machine.cycles.r4600"] > 0
        assert c["machine.cycles.r10000"] > 0
        for machine in ("r4600", "r10000"):
            assert 0 < c[f"machine.table.states.{machine}"]
            assert 0 < c[f"machine.table.misses.{machine}"]

    def test_transition_table_counters_once_per_flat_time_call(self):
        from repro.machine.executor import execute
        from repro.machine.memory import r4600_hierarchy, r10000_hierarchy
        from repro.machine.pipeline import R4600Model
        from repro.machine.superscalar import R10000Model

        comp = compile_source(SIMPLE_MAIN, "simple.c", CompileOptions(mode=DDGMode.COMBINED))
        timed = execute(comp.rtl).trace
        for machine, model, hierarchy in (
            ("r4600", R4600Model, r4600_hierarchy),
            ("r10000", R10000Model, r10000_hierarchy),
        ):
            with obs.enabled_scope():
                model().time(timed)
                once = metrics.counters()
                model().time(timed)
                twice = metrics.counters()
                model(cache=hierarchy()).time(timed)
                with_cache = metrics.counters()
            obs.reset()
            states = once[f"machine.table.states.{machine}"]
            misses = once[f"machine.table.misses.{machine}"]
            # every state but the first is reached by a miss
            assert 0 < states <= misses + 1
            assert misses < len(timed.runs)
            assert twice[f"machine.table.states.{machine}"] == 2 * states
            assert twice[f"machine.table.misses.{machine}"] == 2 * misses
            # the cache-hierarchy path times instruction by instruction
            assert with_cache[f"machine.table.misses.{machine}"] == 2 * misses


class TestLintCounters:
    def test_checker_lint_span_and_counters(self):
        from repro.checker.lint import lint_compilation

        comp = compile_source(
            FIG2_SOURCE, "fig2.c", CompileOptions(mode=DDGMode.COMBINED)
        )
        with obs.enabled_scope():
            lint_compilation(comp)
        names = {s.name for s in trace.iter_spans()}
        assert "checker.lint" in names
        assert "lint.claims_checked" in metrics.counters()


@pytest.mark.parametrize("env,expected", [("1", True), ("0", False), ("", False)])
def test_env_var_gate(env, expected):
    """REPRO_TRACE flips the switch at import time (fresh interpreter)."""
    import os
    import subprocess
    import sys

    env_vars = dict(os.environ, REPRO_TRACE=env)
    out = subprocess.run(
        [sys.executable, "-c", "from repro import obs; print(obs.is_enabled())"],
        capture_output=True,
        text=True,
        env=env_vars,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str(expected)
