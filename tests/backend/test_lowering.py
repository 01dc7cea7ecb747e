"""Lowering tests: GCC-rule conformance and the item-order contract."""

import pytest

from repro import CompileOptions, compile_source
from repro.backend.lowering import lower_program
from repro.backend.rtl import Opcode
from repro.frontend import parse_and_check
from repro.workloads.suite import BENCHMARKS


def lower(src: str):
    prog, table = parse_and_check(src)
    return lower_program(prog, table)


def fn_insns(src: str, name: str = "f"):
    return lower(src).functions[name].insns


class TestRegisterPromotion:
    def test_local_scalars_stay_in_registers(self):
        insns = fn_insns("void f() { int x, y; x = 1; y = x + 2; }")
        assert not any(i.mem is not None for i in insns)

    def test_global_scalar_goes_through_memory(self):
        insns = fn_insns("int g;\nvoid f() { g = g + 1; }")
        loads = [i for i in insns if i.op is Opcode.LOAD]
        stores = [i for i in insns if i.op is Opcode.STORE]
        assert len(loads) == 1 and len(stores) == 1
        assert loads[0].mem.known_symbol == "g"

    def test_address_taken_local_in_memory(self):
        insns = fn_insns("void f() { int x; int *p; p = &x; x = 5; }")
        stores = [i for i in insns if i.op is Opcode.STORE]
        assert stores, "address-taken local must be stored to memory"

    def test_array_element_loses_known_symbol(self):
        insns = fn_insns("int a[8];\nvoid f() { int i; i = 0; a[i] = 1; }")
        store = next(i for i in insns if i.op is Opcode.STORE)
        assert store.mem.known_symbol is None
        assert store.mem.base_symbol == "a"

    def test_deref_loses_everything(self):
        insns = fn_insns("int g;\nvoid f() { int *p; p = &g; *p = 1; }")
        store = next(i for i in insns if i.op is Opcode.STORE)
        assert store.mem.known_symbol is None
        assert store.mem.base_symbol is None


class TestControlFlow:
    def test_for_loop_layout(self):
        insns = fn_insns("void f() { int i, s; s = 0; for (i = 0; i < 4; i++) s += i; }")
        ops = [i.op for i in insns]
        assert Opcode.BEQZ in ops and Opcode.J in ops
        # exactly one backward jump per loop
        assert sum(1 for o in ops if o is Opcode.J) == 1

    def test_if_else_branches(self):
        insns = fn_insns("int f(int c) { if (c) return 1; else return 2; }")
        ops = [i.op for i in insns]
        assert Opcode.BEQZ in ops

    def test_loops_recorded(self):
        prog = lower("void f() { int i; for (i = 0; i < 4; i++) { } while (i) i--; }")
        assert len(prog.functions["f"].loops) == 2

    def test_line_annotations_present(self):
        insns = fn_insns("int g;\nvoid f() {\n    g = 1;\n}")
        store = next(i for i in insns if i.op is Opcode.STORE)
        assert store.line == 3


class TestCallLowering:
    def test_first_four_args_in_registers(self):
        src = "int g4(int a, int b, int c, int d) { return a; }\nvoid f() { g4(1,2,3,4); }"
        insns = fn_insns(src)
        call = next(i for i in insns if i.op is Opcode.CALL)
        assert len(call.srcs) == 4
        assert not any(i.op is Opcode.STORE for i in insns)

    def test_fifth_arg_on_stack(self):
        src = (
            "int g5(int a, int b, int c, int d, int e) { return e; }\n"
            "void f() { g5(1,2,3,4,5); }"
        )
        insns = fn_insns(src)
        stores = [i for i in insns if i.op is Opcode.STORE]
        assert len(stores) == 1
        assert stores[0].mem.known_symbol == "__argslot4"
        # callee loads it back
        callee = lower(src).functions["g5"].insns
        loads = [i for i in callee if i.op is Opcode.LOAD]
        assert loads and loads[0].mem.known_symbol == "__argslot4"

    def test_call_result_register(self):
        src = "int g() { return 7; }\nint f() { return g(); }"
        insns = fn_insns(src)
        call = next(i for i in insns if i.op is Opcode.CALL)
        assert call.dst is not None


class TestItemOrderContract:
    """The load/store emission order must match ITEMGEN exactly: the
    lowering itself asserts this; these tests prove it holds on every
    workload program plus tricky constructs."""

    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_contract_on_benchmarks(self, bench):
        compile_source(bench.source, bench.name, CompileOptions(schedule=False))

    @pytest.mark.parametrize(
        "body",
        [
            "a[0] = a[1] + a[2] * a[3];",
            "a[a[0]] = 1;",
            "a[0] += a[1];",
            "a[0] = c ? a[1] : a[2];",
            "a[0] = (a[1] && a[2]) || a[3];",
            "a[0]++; --a[1];",
            "g = f2(a[0], a[1]) + a[2];",
        ],
        ids=["nested", "indirect", "compound", "ternary", "shortcircuit", "incdec", "call"],
    )
    def test_contract_on_constructs(self, body):
        src = (
            "int a[8];\nint g;\n"
            "int f2(int x, int y) { return x + y; }\n"
            f"void f(int c) {{ {body} }}"
        )
        compile_source(src, "t.c", CompileOptions(schedule=False))


class TestMappingCoverage:
    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_every_memref_maps(self, bench):
        comp = compile_source(bench.source, bench.name, CompileOptions(schedule=False))
        for name, stats in comp.map_stats.items():
            assert stats.unmapped == 0, (name, stats.mismatched_lines)
            assert stats.mapped == stats.total
