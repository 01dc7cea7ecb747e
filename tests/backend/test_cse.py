"""CSE tests: value numbering, store invalidation, Figure 4 call behavior."""

from repro import CompileOptions, compile_source
from repro.backend.cse import run_cse
from repro.backend.rtl import Opcode
from repro.hli.query import HLIQuery
from repro.machine.executor import execute


def compile_raw(src: str):
    return compile_source(src, "cse.c", CompileOptions(schedule=False))


class TestValueNumbering:
    def test_repeated_expression_eliminated(self):
        src = "int f(int a, int b) { int x, y; x = a * b + 1; y = a * b + 1; return x + y; }"
        comp = compile_raw(src)
        fn = comp.rtl.functions["f"]
        muls_before = sum(1 for i in fn.insns if i.op is Opcode.MUL)
        stats = run_cse(fn)
        muls_after = sum(1 for i in fn.insns if i.op is Opcode.MUL)
        assert stats.alu_eliminated > 0
        assert muls_after < muls_before
        res = execute(comp.rtl, "f", args=(3, 4), collect_trace=False)
        assert res.ret == 26

    def test_redefined_operand_blocks_reuse(self):
        src = "int f(int a) { int x, y; x = a + 1; a = a + 5; y = a + 1; return x + y; }"
        comp = compile_raw(src)
        fn = comp.rtl.functions["f"]
        run_cse(fn)
        res = execute(comp.rtl, "f", args=(10,), collect_trace=False)
        assert res.ret == 11 + 16

    def test_repeated_load_eliminated(self):
        src = "int g;\nint f() { int x, y; x = g; y = g; return x + y; }"
        comp = compile_raw(src)
        fn = comp.rtl.functions["f"]
        stats = run_cse(fn)
        assert stats.loads_eliminated == 1
        loads = sum(1 for i in fn.insns if i.op is Opcode.LOAD)
        assert loads == 1

    def test_store_forwarding(self):
        src = "int g;\nint f(int v) { g = v; return g; }"
        comp = compile_raw(src)
        fn = comp.rtl.functions["f"]
        stats = run_cse(fn)
        assert stats.loads_eliminated == 1
        res = execute(comp.rtl, "f", args=(42,), collect_trace=False)
        assert res.ret == 42

    def test_aliasing_store_invalidates(self):
        # without HLI, a store through a pointer kills every load entry
        src = "int g;\nint f(int *p) { int x, y; x = g; *p = 9; y = g; return x + y; }"
        comp = compile_raw(src)
        fn = comp.rtl.functions["f"]
        stats = run_cse(fn)
        assert stats.loads_eliminated == 0

    def test_hli_item_deleted_on_elimination(self):
        src = "int g;\nint f() { int x, y; x = g; y = g; return x + y; }"
        comp = compile_raw(src)
        fn = comp.rtl.functions["f"]
        entry = comp.hli.entry("f")
        items_before = entry.line_table.num_items
        run_cse(fn, entry=entry)
        assert entry.line_table.num_items == items_before - 1


class TestFigure4CallBehavior:
    SRC = """int counter;
int data[16];
void bump() { counter = counter + 1; }
int f() {
    int x, y;
    x = data[5];
    bump();
    y = data[5];
    return x + y + counter;
}
"""

    def test_without_hli_call_purges_everything(self):
        comp = compile_raw(self.SRC)
        fn = comp.rtl.functions["f"]
        stats = run_cse(fn, use_hli=False)
        assert stats.loads_eliminated == 0
        assert stats.entries_kept_across_calls == 0

    def test_with_hli_unrelated_entry_survives(self):
        comp = compile_raw(self.SRC)
        fn = comp.rtl.functions["f"]
        query = HLIQuery(comp.hli.entry("f"))
        stats = run_cse(fn, use_hli=True, query=query, entry=comp.hli.entry("f"))
        # data[5] is untouched by bump(): its entry survives the call and
        # the second load is eliminated.
        assert stats.entries_kept_across_calls > 0
        assert stats.loads_eliminated >= 1

    def test_semantics_preserved_both_ways(self):
        results = []
        for use_hli in (False, True):
            comp = compile_raw(self.SRC)
            fn = comp.rtl.functions["f"]
            query = HLIQuery(comp.hli.entry("f")) if use_hli else None
            run_cse(fn, use_hli=use_hli, query=query, entry=comp.hli.entry("f"))
            res = execute(comp.rtl, "f", collect_trace=False)
            results.append(res.ret)
        assert results[0] == results[1]

    def test_modified_location_still_purged_with_hli(self):
        src = """int counter;
void bump() { counter = counter + 1; }
int f() {
    int x, y;
    x = counter;
    bump();
    y = counter;
    return x * 100 + y;
}
"""
        comp = compile_raw(src)
        fn = comp.rtl.functions["f"]
        query = HLIQuery(comp.hli.entry("f"))
        run_cse(fn, use_hli=True, query=query, entry=comp.hli.entry("f"))
        res = execute(comp.rtl, "f", collect_trace=False)
        assert res.ret == 0 * 100 + 1  # y must observe the bump
