"""End-to-end integration over the full benchmark suite.

These tests are the reproduction's acceptance criteria:

* every benchmark compiles through the full pipeline in every mode;
* every memory reference maps to an HLI item;
* all three dependence modes produce identical observable behaviour
  (HLI-guided scheduling is sound);
* the headline shape results of Tables 1/2 hold.
"""

import pytest

from repro import CompileOptions, compile_source
from repro.backend.ddg import DDGMode
from repro.hli.sizes import size_report
from repro.machine.executor import execute
from repro.workloads.suite import (
    BENCHMARKS,
    float_benchmarks,
    integer_benchmarks,
)


@pytest.fixture(scope="module")
def suite_runs():
    """Compile + run every benchmark under gcc and combined modes once."""
    out = {}
    for b in BENCHMARKS:
        per_mode = {}
        for mode in (DDGMode.GCC, DDGMode.COMBINED):
            comp = compile_source(b.source, b.name, CompileOptions(mode=mode))
            res = execute(
                comp.rtl, b.entry, input_text=b.input_text, collect_trace=False
            )
            per_mode[mode] = (comp, res)
        out[b.name] = per_mode
    return out


class TestSuiteCompiles:
    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_compiles_and_runs(self, suite_runs, bench):
        comp, res = suite_runs[bench.name][DDGMode.COMBINED]
        assert res.steps > 1000, "benchmark should do real work"
        assert comp.hli.entries, "HLI produced"

    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_mapping_complete(self, suite_runs, bench):
        comp, _ = suite_runs[bench.name][DDGMode.COMBINED]
        for name, stats in comp.map_stats.items():
            assert stats.unmapped == 0, f"{name}: lines {stats.mismatched_lines}"


class TestSchedulingSoundness:
    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_modes_agree(self, suite_runs, bench):
        gcc = suite_runs[bench.name][DDGMode.GCC][1]
        hli = suite_runs[bench.name][DDGMode.COMBINED][1]
        assert gcc.ret == hli.ret
        assert gcc.output == hli.output


class TestTable2Shape:
    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_combined_never_worse_than_gcc(self, suite_runs, bench):
        s = suite_runs[bench.name][DDGMode.COMBINED][0].total_dep_stats()
        assert s.combined_yes <= s.gcc_yes
        assert s.combined_yes <= s.hli_yes

    def test_mean_reduction_substantial(self, suite_runs):
        """Paper headline: ~48% int / ~54% fp edge reduction."""
        reductions = [
            suite_runs[b.name][DDGMode.COMBINED][0].total_dep_stats().reduction
            for b in BENCHMARKS
        ]
        assert sum(reductions) / len(reductions) > 0.40

    def test_fp_reduces_more_than_int(self, suite_runs):
        def mean(benches):
            vals = [
                suite_runs[b.name][DDGMode.COMBINED][0].total_dep_stats().reduction
                for b in benches
            ]
            return sum(vals) / len(vals)

        assert mean(float_benchmarks()) > mean(integer_benchmarks())

    def test_tomcatv_like_reduction_over_80pct(self, suite_runs):
        s = suite_runs["101.tomcatv"][DDGMode.COMBINED][0].total_dep_stats()
        assert s.reduction > 0.80

    def test_fp_more_tests_per_line_than_int(self, suite_runs):
        def mean_tpl(benches):
            vals = []
            for b in benches:
                comp = suite_runs[b.name][DDGMode.COMBINED][0]
                s = comp.total_dep_stats()
                rep = size_report(comp.hli, b.source)
                vals.append(s.total_tests / rep.code_lines)
            return sum(vals) / len(vals)

        assert mean_tpl(float_benchmarks()) > mean_tpl(integer_benchmarks())


class TestHLIQueryIntegration:
    def test_queries_built_for_all_units(self, suite_runs):
        comp, _ = suite_runs["034.mdljdp2"][DDGMode.COMBINED]
        assert set(comp.queries) == set(comp.rtl.functions)

    def test_dep_stats_per_function(self, suite_runs):
        comp, _ = suite_runs["034.mdljdp2"][DDGMode.COMBINED]
        assert "forces" in comp.dep_stats
        assert comp.dep_stats["forces"].total_tests > 0
