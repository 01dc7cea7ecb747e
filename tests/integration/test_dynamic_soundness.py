"""Dynamic soundness of HLI equivalence answers.

The strongest possible check on `get_equiv_acc`: execute the program and
verify, for every *basic-block execution instance*, that two memory
references the HLI declared independent (NONE) never actually touched
the same address in that instance.  A single counter-example would mean
the scheduler could have produced wrong code.

(The converse — DEFINITE pairs always matching — is also checked when
both references execute in the instance.)
"""

import pytest

from repro import CompileOptions, compile_source
from repro.backend.rtl import BRANCH_OPS, Opcode
from repro.difftest.gen import GenConfig, generate
from repro.hli.query import EquivAcc
from repro.machine.executor import execute
from repro.workloads.suite import by_name

#: benchmarks with small enough traces for the quadratic window check
CANDIDATES = ["wc", "008.espresso", "048.ora", "052.alvinn", "103.su2cor"]


def block_instances(trace):
    """Split a dynamic trace into basic-block execution windows."""
    window = []
    for ev in trace:
        op = ev.insn.op
        if op is Opcode.LABEL:
            if window:
                yield window
            window = []
            continue
        if op in BRANCH_OPS or op is Opcode.CALL:
            window.append(ev)
            yield window
            window = []
            continue
        window.append(ev)
    if window:
        yield window


def check_program(comp, input_text: str = "", max_windows: int = 50_000):
    res = execute(comp.rtl, input_text=input_text)
    queries = comp.queries
    none_checked = definite_checked = 0
    windows = 0
    # item -> unit query is per function; find via insn's owning function
    insn_unit = {}
    for name, fn in comp.rtl.functions.items():
        for insn in fn.insns:
            insn_unit[insn.uid] = name
    for window in block_instances(res.trace):
        windows += 1
        if windows > max_windows:
            break
        mems = [
            ev
            for ev in window
            if ev.insn.mem is not None and ev.addr is not None
        ]
        for i in range(len(mems)):
            for j in range(i + 1, len(mems)):
                a, b = mems[i], mems[j]
                if not (a.insn.mem.is_store or b.insn.mem.is_store):
                    continue
                ia, ib = a.insn.hli_item, b.insn.hli_item
                if ia is None or ib is None:
                    continue
                unit = insn_unit.get(a.insn.uid)
                if unit is None or insn_unit.get(b.insn.uid) != unit:
                    continue
                q = queries[unit]
                verdict = q.get_equiv_acc(ia, ib)
                if verdict is EquivAcc.NONE:
                    none_checked += 1
                    assert a.addr != b.addr, (
                        f"UNSOUND: items {ia},{ib} declared NONE but both "
                        f"touched address {a.addr:#x} "
                        f"({a.insn} / {b.insn})"
                    )
                elif verdict is EquivAcc.DEFINITE:
                    definite_checked += 1
                    assert a.addr == b.addr, (
                        f"items {ia},{ib} declared DEFINITE but addresses "
                        f"differ: {a.addr:#x} vs {b.addr:#x}"
                    )
    return none_checked, definite_checked


class TestDynamicSoundness:
    @pytest.mark.parametrize("name", CANDIDATES)
    def test_benchmark(self, name):
        bench = by_name(name)
        comp = compile_source(bench.source, bench.name, CompileOptions())
        none_n, def_n = check_program(comp, bench.input_text)
        # the check must actually exercise NONE verdicts to mean anything
        assert none_n + def_n > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_fuzzed_programs(self, seed):
        src = generate(seed, GenConfig.preset("small"))
        comp = compile_source(src, f"dyn{seed}.c", CompileOptions())
        check_program(comp)

    def test_stencil_exercises_none_heavily(self):
        src = """double u[128];
double w[128];
int main() {
    int i;
    for (i = 1; i < 127; i++) {
        w[i] = u[i-1] + u[i+1];
        u[i] = w[i] * 0.5;
    }
    return 0;
}
"""
        comp = compile_source(src, "dyn_st.c", CompileOptions())
        none_n, _ = check_program(comp)
        assert none_n > 100  # plenty of independent pairs verified
