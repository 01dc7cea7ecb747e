"""DDG construction (Figure 5) and list-scheduler tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompileOptions, compile_source
from repro.backend.cfg import build_cfg
from repro.backend.ddg import DDGBuilder, DDGMode, DepStats
from repro.backend.rtl import BRANCH_OPS, Opcode
from repro.backend.scheduler import schedule_block, schedule_function
from repro.hli.query import HLIQuery
from repro.machine.latencies import r4600_latency
from repro.workloads.generators import random_affine_loop


STENCIL = """double u[64];
double w[64];
int main() {
    int i;
    for (i = 1; i < 63; i++) {
        w[i] = u[i-1] + u[i+1];
        u[i] = w[i] * 0.5;
    }
    return 0;
}
"""


def compile_modes(src):
    out = {}
    for mode in DDGMode:
        out[mode] = compile_source(src, "t.c", CompileOptions(mode=mode))
    return out


class TestDDGModes:
    def test_hli_removes_edges_gcc_keeps(self):
        comps = compile_modes(STENCIL)
        gcc = comps[DDGMode.GCC].total_dep_stats()
        hli = comps[DDGMode.COMBINED].total_dep_stats()
        assert gcc.total_tests == hli.total_tests
        assert hli.combined_yes < gcc.gcc_yes

    def test_combined_is_and(self):
        comps = compile_modes(STENCIL)
        s = comps[DDGMode.COMBINED].total_dep_stats()
        assert s.combined_yes <= min(s.gcc_yes, s.hli_yes)

    def test_reduction_property(self):
        s = compile_modes(STENCIL)[DDGMode.COMBINED].total_dep_stats()
        assert s.reduction == 1.0 - s.combined_yes / s.gcc_yes

    def test_unknown_items_conservative(self):
        # without a query object, HLI mode must treat everything as dependent
        comp = compile_source(STENCIL, "t.c", CompileOptions(schedule=False))
        fn = comp.rtl.functions["main"]
        cfg = build_cfg(fn)
        builder = DDGBuilder(mode=DDGMode.HLI, query=None)
        for block in cfg.blocks:
            builder.build(block.body())
        s = builder.stats
        assert s.hli_yes == s.total_tests

    def test_stats_merge(self):
        a = DepStats(total_tests=5, gcc_yes=3, hli_yes=2, combined_yes=1)
        b = DepStats(total_tests=1, gcc_yes=1, hli_yes=1, combined_yes=1)
        a.merge(b)
        assert (a.total_tests, a.gcc_yes, a.hli_yes, a.combined_yes) == (6, 4, 3, 2)


class TestCallEdges:
    SRC = """int counter;
int data[8];
void bump() { counter = counter + 1; }
int main() {
    data[0] = 1;
    bump();
    data[1] = data[0] + 2;
    return data[1];
}
"""

    def _block_with_call(self, comp):
        fn = comp.rtl.functions["main"]
        cfg = build_cfg(fn)
        for block in cfg.blocks:
            if any(i.op is Opcode.CALL for i in block.body()):
                return block.body()
        raise AssertionError("no call block")

    def test_gcc_mode_call_blocks_everything(self):
        comp = compile_source(self.SRC, "c.c", CompileOptions(schedule=False))
        body = self._block_with_call(comp)
        builder = DDGBuilder(mode=DDGMode.GCC)
        ddg = builder.build(body)
        call_pos = next(i for i, x in enumerate(body) if x.op is Opcode.CALL)
        mem_pos = [i for i, x in enumerate(body) if x.mem is not None]
        for m in mem_pos:
            assert (
                m in ddg.preds[call_pos]
                or m in ddg.succs[call_pos]
                or m == call_pos
            )

    def test_hli_mode_frees_unrelated_memory(self):
        comp = compile_source(self.SRC, "c.c", CompileOptions(schedule=False))
        body = self._block_with_call(comp)
        query = HLIQuery(comp.hli.entry("main"))
        builder = DDGBuilder(mode=DDGMode.COMBINED, query=query)
        ddg = builder.build(body)
        call_pos = next(i for i, x in enumerate(body) if x.op is Opcode.CALL)
        # bump() touches only `counter`: data[] refs need no call edge
        data_refs = [
            i
            for i, x in enumerate(body)
            if x.mem is not None and x.mem.base_symbol == "data"
        ]
        for m in data_refs:
            assert m not in ddg.preds[call_pos]
            assert m not in ddg.succs[call_pos]


class TestScheduler:
    def test_schedule_is_permutation(self):
        comp = compile_source(STENCIL, "t.c", CompileOptions(schedule=False))
        fn = comp.rtl.functions["main"]
        before = sorted(i.uid for i in fn.insns)
        schedule_function(fn, DDGMode.GCC)
        after = sorted(i.uid for i in fn.insns)
        assert before == after

    def test_branches_stay_at_block_ends(self):
        comp = compile_source(STENCIL, "t.c", CompileOptions(schedule=False))
        fn = comp.rtl.functions["main"]
        schedule_function(fn, DDGMode.COMBINED, query=HLIQuery(comp.hli.entry("main")))
        cfg = build_cfg(fn)
        for block in cfg.blocks:
            for insn in block.insns[:-1]:
                assert insn.op not in BRANCH_OPS or insn.op is Opcode.RET

    def test_ddg_order_respected(self):
        comp = compile_source(STENCIL, "t.c", CompileOptions(schedule=False))
        fn = comp.rtl.functions["main"]
        cfg = build_cfg(fn)
        for block in cfg.blocks:
            body = block.body()
            builder = DDGBuilder(mode=DDGMode.GCC)
            ddg = builder.build(list(body))
            order = schedule_block(list(body), DDGBuilder(mode=DDGMode.GCC), r4600_latency)
            pos = {insn.uid: k for k, insn in enumerate(order)}
            for i, succs in enumerate(ddg.succs):
                for j in succs:
                    assert pos[ddg.insns[i].uid] < pos[ddg.insns[j].uid]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 1000))
    def test_scheduling_preserves_semantics(self, seed):
        """Random affine programs produce identical results under every mode."""
        from repro.machine.executor import execute

        src, expected = random_affine_loop(seed)
        results = set()
        for mode in DDGMode:
            comp = compile_source(src, "r.c", CompileOptions(mode=mode))
            res = execute(comp.rtl, collect_trace=False)
            results.add(res.ret)
        assert results == {expected[16]}
