"""Differential fuzzing: random structured programs through four paths.

Each seed produces a terminating, fault-free MiniC program from the
fuzzer's generator (:func:`repro.difftest.gen.generate`, ``small``
preset).  The program is run through (1) the reference interpreter,
(2) compile+execute in GCC mode, (3) compile+execute in combined-HLI
mode, and (4) compile with CSE + LICM + unrolling.  All four results
(return value and printed output) must be identical — any divergence
exposes a bug somewhere in the lexer→scheduler chain or the analyses.
"""

import pytest

from repro import CompileOptions, compile_source
from repro.backend.ddg import DDGMode
from repro.difftest.gen import GenConfig, generate
from repro.frontend import parse_and_check
from repro.frontend.interp import interpret
from repro.machine.executor import execute

SEEDS = list(range(40))


@pytest.mark.parametrize("seed", SEEDS)
def test_four_way_agreement(seed):
    src = generate(seed, GenConfig.preset("small"))
    prog, _ = parse_and_check(src)
    ref = interpret(prog)
    results = {"interp": (ref.ret, "".join(ref.output))}
    for label, opts in (
        ("gcc", CompileOptions(mode=DDGMode.GCC)),
        ("hli", CompileOptions(mode=DDGMode.COMBINED)),
        ("opt", CompileOptions(mode=DDGMode.COMBINED, cse=True, licm=True, unroll=2)),
    ):
        comp = compile_source(src, f"fuzz{seed}.c", opts)
        res = execute(comp.rtl, collect_trace=False)
        results[label] = (res.ret, "".join(res.output))
    assert len(set(results.values())) == 1, f"seed {seed}: {results}\n{src}"
