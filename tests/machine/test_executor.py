"""Functional executor tests: arithmetic semantics, control flow, externals."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompileOptions, compile_source
from repro.backend.rtl import Insn, Opcode, RTLFunction, RTLProgram, new_reg
from repro.machine.executor import ExecutionError, Executor, execute


def run(src: str, entry="main", args=(), input_text=""):
    comp = compile_source(src, "x.c", CompileOptions(schedule=False))
    return execute(comp.rtl, entry, args=args, input_text=input_text)


class TestArithmetic:
    def test_int_ops(self):
        src = "int f(int a, int b) { return (a + b) * (a - b) / 2 + a % b; }"
        assert run(src, "f", (10, 3)).ret == (13 * 7) // 2 + 1

    def test_c_division_truncates_toward_zero(self):
        assert run("int f(int a, int b) { return a / b; }", "f", (-7, 2)).ret == -3
        assert run("int f(int a, int b) { return a % b; }", "f", (-7, 2)).ret == -1

    def test_division_by_zero_raises(self):
        with pytest.raises(ExecutionError):
            run("int f(int a) { return 1 / a; }", "f", (0,))

    def test_overflow_wraps_32bit(self):
        src = "int f(int a) { return a * a; }"
        assert run(src, "f", (1 << 20,)).ret == 0  # 2^40 mod 2^32 = 0

    def test_bitwise(self):
        src = "int f(int a, int b) { return ((a & b) | (a ^ b)) << 1 >> 1; }"
        assert run(src, "f", (0b1100, 0b1010)).ret == 0b1110

    def test_comparisons(self):
        src = "int f(int a, int b) { return (a < b) * 8 + (a <= b) * 4 + (a == b) * 2 + (a != b); }"
        assert run(src, "f", (3, 3)).ret == 0b0110

    def test_float_math(self):
        src = "int f() { double x; x = 1.5 * 4.0 - 2.0; return x == 4.0; }"
        assert run(src, "f").ret == 1

    def test_int_float_conversion(self):
        src = "int f(int n) { double d; d = n; d = d / 4.0; return d * 8.0; }"
        assert run(src, "f", (3,)).ret == 6

    def test_short_circuit_and(self):
        src = "int g;\nint side() { g = 1; return 1; }\nint f() { int r; r = 0 && side(); return g * 10 + r; }"
        assert run(src, "f").ret == 0  # side() never ran

    def test_short_circuit_or(self):
        src = "int g;\nint side() { g = 1; return 0; }\nint f() { int r; r = 1 || side(); return g * 10 + r; }"
        assert run(src, "f").ret == 1

    def test_ternary(self):
        src = "int f(int c) { return c > 0 ? 10 : 20; }"
        assert run(src, "f", (5,)).ret == 10
        assert run(src, "f", (-5,)).ret == 20


class TestControlFlow:
    def test_loop_sum(self):
        src = "int f(int n) { int i, s; s = 0; for (i = 1; i <= n; i++) s += i; return s; }"
        assert run(src, "f", (100,)).ret == 5050

    def test_nested_loops(self):
        src = (
            "int f() { int i, j, c; c = 0;"
            " for (i = 0; i < 5; i++) for (j = 0; j < i; j++) c++;"
            " return c; }"
        )
        assert run(src, "f").ret == 10

    def test_break(self):
        src = "int f() { int i; for (i = 0; i < 100; i++) if (i == 7) break; return i; }"
        assert run(src, "f").ret == 7

    def test_continue(self):
        src = (
            "int f() { int i, s; s = 0;"
            " for (i = 0; i < 10; i++) { if (i % 2) continue; s += i; }"
            " return s; }"
        )
        assert run(src, "f").ret == 20

    def test_do_while_runs_once(self):
        src = "int f() { int n; n = 0; do n++; while (n < 0); return n; }"
        assert run(src, "f").ret == 1

    def test_recursion(self):
        src = "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }"
        assert run(src, "fib", (12,)).ret == 144

    def test_taken_branch_to_undefined_label_raises(self):
        cond = new_reg()
        for branch in (
            Insn(Opcode.J, label="nowhere"),
            Insn(Opcode.BNEZ, srcs=(cond,), label="nowhere"),
        ):
            fn = RTLFunction(
                "f", insns=[Insn(Opcode.LI, dst=cond, imm=1), branch, Insn(Opcode.RET)]
            )
            with pytest.raises(ExecutionError, match="undefined label 'nowhere' in f"):
                execute(RTLProgram(functions={"f": fn}), "f")

    def test_untaken_branch_to_undefined_label_runs_on(self):
        cond = new_reg()
        fn = RTLFunction(
            "f",
            insns=[
                Insn(Opcode.LI, dst=cond, imm=1),
                Insn(Opcode.BEQZ, srcs=(cond,), label="nowhere"),
                Insn(Opcode.RET),
            ],
            ret_reg=cond,
        )
        assert execute(RTLProgram(functions={"f": fn}), "f").ret == 1

    def test_step_limit(self):
        comp = compile_source(
            "int main() { while (1) { } return 0; }", "inf.c", CompileOptions()
        )
        with pytest.raises(ExecutionError):
            execute(comp.rtl, max_steps=10_000, collect_trace=False)


class TestExactEdges:
    """What a run leaves behind when it stops early must not depend on how
    the executor groups instructions: every step limit stops at the same
    instruction, in the same function, after the same output."""

    SRC = """int g[4];
int sq(int x) { return x * x; }
int main() {
    int i;
    for (i = 0; i < 3; i++)
        g[i] = sq(i);
    printf("g2=%d", g[2]);
    exit(g[1] + g[2]);
    return 0;
}
"""
    STEPS = 83
    #: (function, consecutive steps in it) in execution order; labels
    #: count as steps, and exit() ends the run on main's last step
    WHERE = [("main", 7), ("sq", 3), ("main", 15), ("sq", 3), ("main", 15),
             ("sq", 3), ("main", 37)]
    #: the step that calls printf (1-based)
    PRINTF_STEP = 69

    @pytest.fixture(scope="class")
    def rtl(self):
        return compile_source(self.SRC, "edge.c", CompileOptions(schedule=False)).rtl

    def test_full_run(self, rtl):
        res = execute(rtl)
        assert (res.ret, res.steps, len(res.trace)) == (5, self.STEPS, 75)
        assert res.output == ["g2=4"]
        assert Executor(rtl, max_steps=self.STEPS).run().steps == self.STEPS

    def test_every_step_limit_stops_at_its_step(self, rtl):
        functions = [fn for fn, n in self.WHERE for _ in range(n)]
        assert len(functions) == self.STEPS
        for k in range(self.STEPS):
            for collect in (True, False):
                ex = Executor(rtl, max_steps=k, collect_trace=collect)
                with pytest.raises(ExecutionError) as exc:
                    ex.run()
                assert str(exc.value) == f"step limit exceeded in {functions[k]}"
                assert ex.steps == k + 1
                assert ex.output == (["g2=4"] if k >= self.PRINTF_STEP else [])

    def test_division_by_zero_in_a_straight_line_names_its_line(self):
        src = (
            "int f(int a, int b) {\n"
            "    int x, y, z;\n"
            "    x = 100 / a;\n"
            "    y = x / b;\n"
            "    z = x % b;\n"
            "    return x + y + z;\n"
            "}\n"
            "int m(int a, int b) {\n"
            "    int x, z;\n"
            "    x = a + 1;\n"
            "    z = x % b;\n"
            "    return x + z;\n"
            "}\n"
        )
        comp = compile_source(src, "div.c", CompileOptions(schedule=False))
        assert execute(comp.rtl, "f", (5, 3)).ret == 20 + 6 + 2
        for entry, args, message in (
            ("f", (0, 3), "integer division by zero at line 3"),
            ("f", (5, 0), "integer division by zero at line 4"),
            ("m", (5, 0), "integer modulo by zero at line 11"),
        ):
            with pytest.raises(ExecutionError) as exc:
                execute(comp.rtl, entry, args)
            assert str(exc.value) == message


class TestMemory:
    def test_array_roundtrip(self):
        src = (
            "int a[16];\n"
            "int f() { int i, s; for (i = 0; i < 16; i++) a[i] = i * i;"
            " s = 0; for (i = 0; i < 16; i++) s += a[i]; return s; }"
        )
        assert run(src, "f").ret == sum(i * i for i in range(16))

    def test_2d_array(self):
        src = (
            "int m[4][4];\n"
            "int f() { int i, j; for (i = 0; i < 4; i++) for (j = 0; j < 4; j++)"
            " m[i][j] = i * 10 + j; return m[2][3]; }"
        )
        assert run(src, "f").ret == 23

    def test_pointer_write(self):
        src = "int g;\nint f() { int *p; p = &g; *p = 77; return g; }"
        assert run(src, "f").ret == 77

    def test_pointer_into_array(self):
        src = "int a[8];\nint f() { int *p; p = a + 3; *p = 5; return a[3]; }"
        assert run(src, "f").ret == 5

    def test_struct_fields(self):
        src = (
            "struct pt { int x; int y; };\n"
            "struct pt p;\n"
            "int f() { p.x = 3; p.y = 4; return p.x * p.x + p.y * p.y; }"
        )
        assert run(src, "f").ret == 25

    def test_malloc(self):
        src = "int f() { int *p; p = malloc(8); *p = 9; *(p + 1) = 1; return *p + *(p + 1); }"
        assert run(src, "f").ret == 10

    def test_global_initializer(self):
        src = "int g = 41;\nint f() { return g + 1; }"
        assert run(src, "f").ret == 42


class TestExternals:
    def test_getchar_stream(self):
        src = "int f() { int c, n; n = 0; c = getchar(); while (c >= 0) { n++; c = getchar(); } return n; }"
        assert run(src, "f", input_text="hello").ret == 5

    def test_putchar_output(self):
        src = "int f() { putchar(104); putchar(105); return 0; }"
        res = run(src, "f")
        assert "".join(res.output) == "hi"

    def test_printf_collected(self):
        src = 'int f() { printf("x=%d", 42); return 0; }'
        res = run(src, "f")
        assert res.output == ["x=42"]

    def test_math_functions(self):
        src = "int f() { double r; r = sqrt(16.0) + fabs(-2.0) + pow(2.0, 3.0); return r; }"
        assert run(src, "f").ret == 14

    def test_exit(self):
        src = "int f() { exit(3); return 0; }"
        assert run(src, "f").ret == 3

    def test_rand_deterministic(self):
        src = "int f() { return rand() % 1000; }"
        assert run(src, "f").ret == run(src, "f").ret


class TestTrace:
    def test_trace_collected(self):
        src = "int g;\nint f() { g = 1; return g; }"
        comp = compile_source(src, "t.c", CompileOptions(schedule=False))
        res = execute(comp.rtl, "f")
        assert res.trace
        addrs = [ev.addr for ev in res.trace if ev.insn.mem is not None]
        assert len(set(addrs)) == 1  # both refs hit g's address

    def test_loop_shares_one_event_per_static_instruction(self):
        src = "int a[8];\nint f() { int i, s; s = 0; for (i = 0; i < 8; i++) s += a[i]; return s; }"
        comp = compile_source(src, "t.c", CompileOptions(schedule=False))
        res = execute(comp.rtl, "f")
        events: dict[int, list] = {}
        for ev in res.trace:
            events.setdefault(id(ev.insn), []).append(ev)
        assert max(len(evs) for evs in events.values()) >= 8  # the loop ran
        loads = []
        for evs in events.values():
            if evs[0].insn.mem is None:
                assert all(ev is evs[0] for ev in evs)
                assert evs[0].addr is None
            else:
                assert len({id(ev) for ev in evs}) == len(evs)
                if evs[0].insn.op is Opcode.LOAD and len(evs) == 8:
                    loads = [ev.addr for ev in evs]
        base = comp.rtl.globals_layout["a"][0]
        assert loads == [base + 4 * i for i in range(8)]

    def test_events_are_immutable(self):
        src = "int g;\nint f() { g = 1; return g; }"
        comp = compile_source(src, "t.c", CompileOptions(schedule=False))
        res = execute(comp.rtl, "f")
        for ev in (res.trace[0], next(ev for ev in res.trace if ev.addr is not None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                ev.addr = 0

    def test_trace_disabled(self):
        src = "int f() { return 1; }"
        comp = compile_source(src, "t.c", CompileOptions(schedule=False))
        res = execute(comp.rtl, "f", collect_trace=False)
        assert res.trace == []


class TestPropertySemantics:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(-1000, 1000), st.integers(1, 100))
    def test_arith_identity(self, a, b):
        src = "int f(int a, int b) { return (a / b) * b + a % b; }"
        assert run(src, "f", (a, b)).ret == a

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=20))
    def test_array_sum_matches_python(self, values):
        n = len(values)
        decls = "int a[32];\n"
        fills = "".join(f"a[{i}] = {v}; " for i, v in enumerate(values))
        src = f"{decls}int f() {{ int i, s; {fills} s = 0; for (i = 0; i < {n}; i++) s += a[i]; return s; }}"
        assert run(src, "f").ret == sum(values)
