"""LICM and loop unrolling tests, with HLI maintenance integration."""

import pytest

from repro import CompileOptions, compile_source
from repro.backend.cfg import build_cfg
from repro.backend.licm import run_licm
from repro.backend.unroll import run_unroll
from repro.hli.query import HLIQuery
from repro.machine.executor import execute
from repro.workloads.suite import BENCHMARKS


def compile_raw(src: str, name="t.c"):
    return compile_source(src, name, CompileOptions(schedule=False))


class TestLICM:
    LOOP = """int a[64];
int bias;
int main() {
    int i, s;
    s = 0;
    for (i = 0; i < 64; i++) {
        s = s + a[i] * bias;
    }
    return s;
}
"""

    def test_alu_constants_hoisted(self):
        comp = compile_raw(self.LOOP)
        fn = comp.rtl.functions["main"]
        stats = run_licm(fn)
        assert stats.alu_hoisted > 0

    def test_invariant_load_requires_hli(self):
        # `bias` is loaded every iteration; a[] stores don't exist, but the
        # local test cannot separate `bias` from the a[i] loads... actually
        # there are no stores here, so even the local test hoists it.
        comp = compile_raw(self.LOOP)
        fn = comp.rtl.functions["main"]
        stats = run_licm(fn, use_hli=False)
        assert stats.loads_hoisted >= 1

    STORE_LOOP = """int a[64];
int bias;
int main() {
    int i;
    for (i = 0; i < 64; i++) {
        a[i] = bias + i;
    }
    return a[10];
}
"""

    def test_local_test_blocks_hoist_past_array_store(self):
        comp = compile_raw(self.STORE_LOOP)
        fn = comp.rtl.functions["main"]
        stats = run_licm(fn, use_hli=False)
        assert stats.loads_hoisted == 0  # a[i] store may alias bias for GCC

    def test_hli_enables_hoist_past_array_store(self):
        comp = compile_raw(self.STORE_LOOP)
        fn = comp.rtl.functions["main"]
        query = HLIQuery(comp.hli.entry("main"))
        stats = run_licm(fn, use_hli=True, query=query, entry=comp.hli.entry("main"))
        assert stats.loads_hoisted >= 1

    def test_semantics_preserved(self):
        base = execute(compile_raw(self.STORE_LOOP).rtl, collect_trace=False).ret
        comp = compile_raw(self.STORE_LOOP)
        fn = comp.rtl.functions["main"]
        query = HLIQuery(comp.hli.entry("main"))
        run_licm(fn, use_hli=True, query=query, entry=comp.hli.entry("main"))
        assert execute(comp.rtl, collect_trace=False).ret == base

    def test_variant_load_not_hoisted(self):
        src = """int a[64];
int main() {
    int i, s;
    s = 0;
    for (i = 0; i < 64; i++) {
        s = s + a[i];
    }
    return s;
}
"""
        comp = compile_raw(src)
        fn = comp.rtl.functions["main"]
        query = HLIQuery(comp.hli.entry("main"))
        stats = run_licm(fn, use_hli=True, query=query, entry=comp.hli.entry("main"))
        assert stats.loads_hoisted == 0  # a[i] depends on i


class TestUnroll:
    LOOP = """int a[64];
int main() {
    int i, s;
    s = 0;
    for (i = 0; i < 64; i++) {
        s = s + a[i];
        a[i] = s;
    }
    return s;
}
"""

    def _compile(self):
        comp = compile_raw(self.LOOP)
        fn = comp.rtl.functions["main"]
        query = HLIQuery(comp.hli.entry("main"))
        return comp, fn, query

    def test_unroll_fires(self):
        comp, fn, query = self._compile()
        stats = run_unroll(fn, 4, query=query, entry=comp.hli.entry("main"))
        assert stats.loops_unrolled == 1
        assert stats.copies_made == 3

    def test_unrolled_block_is_larger(self):
        comp, fn, query = self._compile()
        sizes_before = max(len(b.insns) for b in build_cfg(fn).blocks)
        run_unroll(fn, 4, query=query, entry=comp.hli.entry("main"))
        sizes_after = max(len(b.insns) for b in build_cfg(fn).blocks)
        assert sizes_after > 2 * sizes_before

    def test_semantics_preserved(self):
        base = execute(compile_raw(self.LOOP).rtl, collect_trace=False).ret
        comp, fn, query = self._compile()
        run_unroll(fn, 4, query=query, entry=comp.hli.entry("main"))
        assert execute(comp.rtl, collect_trace=False).ret == base

    def test_cloned_memrefs_have_items(self):
        comp, fn, query = self._compile()
        run_unroll(fn, 2, query=query, entry=comp.hli.entry("main"))
        mems = [i for i in fn.insns if i.mem is not None]
        assert all(i.hli_item is not None for i in mems)

    def test_indivisible_trip_skipped(self):
        src = self.LOOP.replace("i < 64", "i < 63")
        comp = compile_raw(src)
        fn = comp.rtl.functions["main"]
        query = HLIQuery(comp.hli.entry("main"))
        stats = run_unroll(fn, 4, query=query, entry=comp.hli.entry("main"))
        assert stats.loops_unrolled == 0

    def test_loop_with_branch_skipped(self):
        src = """int a[64];
int main() {
    int i, s;
    s = 0;
    for (i = 0; i < 64; i++) {
        if (a[i] > 0) s = s + 1;
    }
    return s;
}
"""
        comp = compile_raw(src)
        fn = comp.rtl.functions["main"]
        query = HLIQuery(comp.hli.entry("main"))
        stats = run_unroll(fn, 2, query=query, entry=comp.hli.entry("main"))
        assert stats.loops_unrolled == 0

    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_factors(self, factor):
        comp, fn, query = self._compile()
        stats = run_unroll(fn, factor, query=query, entry=comp.hli.entry("main"))
        assert stats.loops_unrolled == 1
        assert execute(comp.rtl, collect_trace=False).ret == execute(
            compile_raw(self.LOOP).rtl, collect_trace=False
        ).ret


class TestFullPipelineOnSuite:
    @pytest.mark.parametrize("bench", BENCHMARKS[:6], ids=lambda b: b.name)
    def test_all_passes_preserve_results(self, bench):
        base = execute(
            compile_source(bench.source, bench.name, CompileOptions()).rtl,
            input_text=bench.input_text,
            collect_trace=False,
        )
        opt = execute(
            compile_source(
                bench.source,
                bench.name,
                CompileOptions(cse=True, licm=True, unroll=2),
            ).rtl,
            input_text=bench.input_text,
            collect_trace=False,
        )
        assert opt.ret == base.ret
        assert opt.output == base.output
