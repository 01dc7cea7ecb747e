"""Timing model tests: R4600 in-order and R10000 out-of-order behaviours."""

from functools import lru_cache

import pytest

from repro import CompileOptions, compile_source
from repro.backend.ddg import DDGMode
from repro.backend.rtl import Insn, MemRef, Opcode, new_reg
from repro.bench import registry
from repro.difftest.gen import generate
from repro.driver.session import CompilationSession
from repro.machine.executor import Run, RunTrace, TraceEvent, execute
from repro.machine.latencies import r4600_latency, r10000_latency
from repro.machine.memory import (
    Cache,
    CacheConfig,
    MemoryHierarchy,
    r4600_hierarchy,
    r10000_hierarchy,
)
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


@lru_cache(maxsize=None)
def _generated(seed: int, mode: DDGMode):
    """``generate(seed)`` compiled in ``mode`` and executed; the run-path
    and transition-table checks share these results."""
    comp = compile_source(generate(seed), f"gen{seed}.c", CompileOptions(mode=mode))
    return execute(comp.rtl)


class TestRunPathMatchesEventPath:
    """Timing a trace run by run gives the cycles of timing the same
    events one by one (``RunTrace.of`` makes one run per event)."""

    @pytest.mark.parametrize("seed", range(40))
    def test_generated_program(self, seed):
        for mode in (DDGMode.GCC, DDGMode.COMBINED):
            res = _generated(seed, mode)
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


def zero_penalty() -> MemoryHierarchy:
    """A hierarchy that never adds a cycle: a model given one times every
    instruction by its per-instruction rules, where on flat memory it
    walks its transition table."""
    return MemoryHierarchy(l1=Cache(CacheConfig(hit_cycles=0, miss_cycles=0)), l2=None)


#: Every model configuration the transition table is checked in, each a
#: factory of the model over a ``cache``.
TABLE_CONFIGS = {
    "R4600": lambda cache: R4600Model(cache=cache),
    "R4600/branch_penalty=3": lambda cache: R4600Model(branch_penalty=3, cache=cache),
    "R10000": lambda cache: R10000Model(cache=cache),
    "R10000/no store queue": lambda cache: R10000Model(
        R10000Config(store_queue=False), cache=cache
    ),
    "R10000/window=64": lambda cache: R10000Model(R10000Config(window=64), cache=cache),
    "R10000/width=1": lambda cache: R10000Model(R10000Config(width=1), cache=cache),
    "R10000/window=8,branch_penalty=0": lambda cache: R10000Model(
        R10000Config(window=8, branch_penalty=0), cache=cache
    ),
}


def assert_table_matches_rules(trace, label=None) -> dict[str, int]:
    """Time ``trace`` in every :data:`TABLE_CONFIGS` configuration on flat
    memory and over :func:`zero_penalty`, require equal cycles and
    instructions, and return the cycles by configuration."""
    cycles = {}
    for name, make in TABLE_CONFIGS.items():
        flat = make(None).time(trace)
        rules = make(zero_penalty()).time(trace)
        assert (flat.cycles, flat.instructions) == (rules.cycles, rules.instructions), (
            label,
            name,
        )
        cycles[name] = flat.cycles
    return cycles


def run_of(*insns: Insn) -> Run:
    """A static run of ``insns`` as the executor records one: labels left
    out, and loads and stores taking their addresses from the trace."""
    insns = tuple(i for i in insns if i.op is not Opcode.LABEL)
    memory = (Opcode.LOAD, Opcode.STORE)
    return Run(insns, tuple(None if i.op in memory else TraceEvent(i) for i in insns))


def store(data, addr_reg):
    return Insn(Opcode.STORE, srcs=(data,), mem=MemRef(addr=addr_reg, is_store=True))


def load(dst, addr_reg):
    return Insn(Opcode.LOAD, dst=dst, mem=MemRef(addr=addr_reg))


class TestTransitionTable:
    """Corner cases of the flat-memory transition tables, each checked
    against the same model's per-instruction rules."""

    def slow_store_then(self, *tail: Insn) -> RunTrace:
        """A store whose data comes from a divide, so it is still live in
        the queue when the instructions of ``tail`` issue, a run later."""
        a, d, q = new_reg(), new_reg(), new_reg()
        head = run_of(
            Insn(Opcode.LI, dst=a, imm=64),
            Insn(Opcode.DIV, dst=d, srcs=(a, 2)),
            store(d, q),
            Insn(Opcode.J, label="next"),
        )
        return RunTrace([head, run_of(*tail)], [])

    def test_none_addresses(self):
        """A store's None address is -1 and forwards to a load at -1; a
        load's None matches nothing."""
        v, p = new_reg(), new_reg()
        cycles = {}
        for name, store_addr, load_addr in (
            ("forwards", None, -1),
            ("load None", None, None),
            ("load None after -1", -1, None),
            ("apart", None, 8),
        ):
            trace = self.slow_store_then(load(v, p), Insn(Opcode.ADD, dst=p, srcs=(v, 1)))
            trace.addrs[:] = [store_addr, load_addr]
            cycles[name] = assert_table_matches_rules(trace, name)["R10000"]
        assert cycles["forwards"] > cycles["apart"]
        assert cycles["load None"] == cycles["load None after -1"] == cycles["apart"]

    def drain(self) -> Run:
        """A run long enough to bring every model to the same state
        whatever came before it."""
        r = new_reg()
        return run_of(*[Insn(Opcode.LI, dst=r, imm=1) for _ in range(120)])

    def test_same_state_and_run_with_other_addresses(self):
        """The same run from the same state, once with its load hitting a
        store still live in the queue and once not: the table must tell
        them apart by the addresses, not reuse the first transition."""
        a, d, q, v, p = (new_reg() for _ in range(5))
        drain = self.drain()
        slow_store = run_of(
            Insn(Opcode.LI, dst=a, imm=64),
            Insn(Opcode.DIV, dst=d, srcs=(a, 2)),
            store(d, q),
            Insn(Opcode.J, label="next"),
        )
        use = run_of(load(v, p), Insn(Opcode.ADD, dst=a, srcs=(v, 1)))
        runs = [drain, slow_store, use, drain, slow_store, use]
        addrs = {"hit": [100, 100], "miss": [100, 104]}
        cycles = {}
        for first in addrs:
            for last in addrs:
                trace = RunTrace(runs, addrs[first] + addrs[last])
                cycles[first, last] = assert_table_matches_rules(trace, (first, last))["R10000"]
        # each load that hits the store waits one cycle more for its data
        assert cycles["hit", "hit"] - 1 == cycles["hit", "miss"] == cycles["miss", "hit"]
        assert cycles["miss", "miss"] + 1 == cycles["hit", "miss"]

    def test_labels_only_runs(self):
        r = new_reg()
        label = Insn(Opcode.LABEL, label="x")
        work = run_of(Insn(Opcode.DIV, dst=r, srcs=(r, 3)), Insn(Opcode.J, label="x"))
        empty = run_of(label)
        trace = RunTrace([work, empty, Run((label,), (TraceEvent(label),)), work, empty], [])
        assert_table_matches_rules(trace)
        assert R10000Model().time(trace).instructions == R4600Model().time(trace).instructions == 4
        assert R4600Model().time(RunTrace([empty], [])).cycles == 0
        assert R10000Model().time(RunTrace([empty], [])).cycles == 0

    def test_run_longer_than_the_window(self):
        regs = [new_reg() for _ in range(6)]
        body = []
        addrs = []
        for i in range(40):
            r, s = regs[i % 6], regs[(i + 1) % 6]
            body.append(Insn(Opcode.MUL, dst=r, srcs=(s, 3)))
            body.append(store(r, s) if i % 3 else load(r, s))
            addrs.append(8 * (i % 5))
        long_run = run_of(*body, Insn(Opcode.BNEZ, srcs=(regs[0],), label="top"))
        assert len(long_run.insns) > 64
        trace = RunTrace([long_run] * 4, addrs * 4)
        assert_table_matches_rules(trace)

    def test_call_clears_live_stores(self):
        """A CALL empties a queue whose store is still live, so the load
        after it no longer waits for that store's data."""
        v, p = new_reg(), new_reg()
        use = run_of(load(v, p), Insn(Opcode.ADD, dst=p, srcs=(v, 1)))
        cycles = {}
        for ending in (Insn(Opcode.CALL, callee="f"), Insn(Opcode.J, label="next")):
            for addrs in ([100, 100], [100, 104]):
                trace = self.slow_store_then(ending)
                trace.runs.append(use)
                trace.addrs[:] = addrs
                label = (ending.op, addrs)
                cycles[ending.op, addrs[1]] = assert_table_matches_rules(trace, label)["R10000"]
        assert cycles[Opcode.CALL, 100] == cycles[Opcode.CALL, 104]
        assert cycles[Opcode.J, 100] > cycles[Opcode.J, 104]

    def test_store_queue_overflow_behind_a_live_store(self):
        """A live store at the head of the queue with enough stores
        behind it to overflow the queue, and a load to its address."""
        a, d, q, v, p = (new_reg() for _ in range(5))
        slow = [
            Insn(Opcode.LI, dst=a, imm=64),
            Insn(Opcode.DIV, dst=d, srcs=(a, 2)),
            store(d, q),
        ]
        fast = [store(a, p) for _ in range(70)]
        tail = [load(v, q), Insn(Opcode.ADD, dst=a, srcs=(v, 1)), Insn(Opcode.J, label="top")]
        for split in (False, True):
            if split:  # the overflowing stores in a run of their own
                runs = [run_of(*slow), run_of(*fast), run_of(*tail)]
            else:
                runs = [run_of(*slow, *fast, *tail)]
            addrs = [100] + [200 + 4 * i for i in range(70)] + [100]
            assert_table_matches_rules(RunTrace(runs * 3, addrs * 3), split)


class TestTableMatchesRules:
    """The transition tables give the cycles of the per-instruction rules
    on the traces :class:`TestRunPathMatchesEventPath` times (the full
    sweep over the paper's suite and the generated sets is
    :class:`TestTableMatchesRulesSweep`)."""

    @pytest.mark.parametrize("seed", range(40))
    def test_generated_program(self, seed):
        for mode in (DDGMode.GCC, DDGMode.COMBINED):
            assert_table_matches_rules(_generated(seed, mode).trace, (seed, mode))


#: The sets the exactness sweep times, with their sizes: the paper's 14
#: rows and the 103 generated and kernel programs.
SWEEP_SETS = {
    "suite-v1": 14,
    "gen-pointer-v1": 24,
    "gen-float-v1": 24,
    "gen-branchy-v1": 24,
    "gen-deepcall-v1": 16,
    "kernels-v1": 15,
}


def _sweep_programs(name: str) -> list[tuple[str, str, str, str]]:
    """``(name, source, entry, input)`` for each program of a sweep set."""
    if name == "suite-v1":
        return [(s.name, s.source, s.entry, s.input_text) for s in registry.suite_specs()]
    return [(p.name, p.units[0][1], "main", "") for p in registry.materialize(name)]


@pytest.mark.bench
class TestTableMatchesRulesSweep:
    """Every program of the suite and of the generated sets, in ``gcc``
    and ``combined`` mode, scheduled for both latency tables, timed in
    every :data:`TABLE_CONFIGS` configuration: 468 traces, 3,276 timings."""

    @pytest.mark.parametrize("name", SWEEP_SETS)
    def test_set(self, name):
        programs = _sweep_programs(name)
        assert len(programs) == SWEEP_SETS[name]
        for program, source, entry, input_text in programs:
            session = CompilationSession()
            for mode in (DDGMode.GCC, DDGMode.COMBINED):
                for latency in (r4600_latency, r10000_latency):
                    opts = CompileOptions(mode=mode, latency=latency)
                    comp = session.compile(source, program, opts)
                    res = execute(comp.rtl, entry, input_text=input_text)
                    label = (program, mode.value, latency.__name__)
                    assert_table_matches_rules(res.trace, label)


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
