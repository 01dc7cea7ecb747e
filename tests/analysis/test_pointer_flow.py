"""Every way a pointer value flows keeps HLI sound.

Each program stores through a pointer that holds ``&x`` at run time and
then reads ``x``.  If the pointer's points-to set misses ``x``, HLI
answers "no dependence" for the store and the load, the scheduler may
hoist the load above the store, and ``hli`` and ``combined`` mode return
the stale value.  Every program runs in ``gcc``, ``hli`` and
``combined`` mode against the reference interpreter.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompileOptions, compile_source
from repro.analysis.alias import analyze_points_to
from repro.backend.ddg import DDGMode
from repro.checker import dynamic_audit
from repro.driver.wpa import compile_whole_program
from repro.frontend import ast_nodes as ast
from repro.frontend import parse_and_check
from repro.frontend.interp import interpret
from repro.frontend.symbols import Symbol
from repro.machine.executor import execute

MODES = (DDGMode.GCC, DDGMode.HLI, DDGMode.COMBINED)

GLOBALS = "int x; int y;\n"
GX = "int *gx() { return &x; }\n"

#: name -> (source, the value C gives)
REPRODUCERS = {
    "declaration-initializer": (
        GLOBALS + "int main() { int *p = &x; x = 5; *p = 1; p = &y; return x; }",
        1,
    ),
    "argument-from-a-call": (
        GLOBALS
        + GX
        + "int set(int *p) { *p = 1; return 0; }\n"
        "int main() { int r; x = 5; set(&y); r = x; set(gx()); return x + r * 10; }",
        51,
    ),
    "return-of-a-call": (
        GLOBALS
        + GX
        + "int *pick(int c) { if (c) return gx(); return &y; }\n"
        "int main() { int *q; int t; q = pick(1); x = 5; *q = 1; t = x; return t; }",
        1,
    ),
    "store-through-a-pointer-to-pointer": (
        GLOBALS
        + "int main() { int *p; int **pp; p = &y; pp = &p; *pp = &x;"
        " x = 5; *p = 1; return x; }",
        1,
    ),
    "store-through-a-pointer-parameter": (
        GLOBALS
        + "int setp(int **pp) { *pp = &x; return 0; }\n"
        "int main() { int *p; p = &y; setp(&p); x = 5; *p = 1; return x; }",
        1,
    ),
    # TOP must cover a parameter whose address is taken, like a local.
    "pointer-to-a-parameter": (
        "int *load(int **pp) { return *pp; }\n"
        "int f(int a) { int *p; int *q; p = &a; q = load(&p); a = 5; *q = 1; return a; }\n"
        "int main() { return f(3); }",
        1,
    ),
}

#: A pointer parameter no call in its own unit binds.
CROSS_UNIT_CALLEE = (
    "extern int x; extern int y;\n"
    "int f(int *q, int c) { int *p; p = &y; if (c) p = q; x = 5; *p = 1; return x; }\n"
)
CROSS_UNIT = [
    ("u0.c", GLOBALS + "extern int f(int *q, int c);\nint main() { return f(&x, 1); }\n"),
    ("u1.c", CROSS_UNIT_CALLEE),
]


def interpreted(units: list[tuple[str, str]]):
    program, _ = parse_and_check("\n".join(src for _, src in units))
    return interpret(program).ret


def compiled_results(units: list[tuple[str, str]]) -> dict[str, object]:
    """Return value per build (mode, and for several units per-file or
    whole-program), checking that the auditors stay clean on each."""
    out: dict[str, object] = {}
    for mode in MODES:
        opts = CompileOptions(mode=mode, lint=True)
        if len(units) == 1:
            comp = compile_source(units[0][1], units[0][0], opts)
            assert comp.lint_report is not None and comp.lint_report.clean
            assert dynamic_audit(comp).clean
            out[mode.value] = execute(comp.rtl, collect_trace=False).ret
            continue
        for whole_program in (False, True):
            res = compile_whole_program(units, opts, whole_program=whole_program)
            for comp in res.units.values():
                assert comp.lint_report is not None and comp.lint_report.clean
            assert res.lint_report().clean
            key = f"{mode.value}/{'wp' if whole_program else 'per-file'}"
            out[key] = execute(res.image, collect_trace=False).ret
    return out


@pytest.mark.parametrize("name", sorted(REPRODUCERS))
def test_reproducer_returns_the_interpreted_value(name):
    source, expected = REPRODUCERS[name]
    units = [("flow.c", source)]
    assert interpreted(units) == expected
    assert compiled_results(units) == {m.value: expected for m in MODES}


def test_return_nodes_carry_exact_targets_and_stay_internal():
    program, table = parse_and_check(REPRODUCERS["return-of-a-call"][0])
    pts = analyze_points_to(program, table)
    (q,) = [
        s.symbol
        for s in ast.walk_stmts(program.function("main").body)
        if isinstance(s, ast.VarDecl) and s.name == "q"
    ]
    assert {t.name for t in pts.points_to[q]} == {"x", "y"}
    assert all(isinstance(node, Symbol) for node in pts.points_to)


def test_parameter_bound_only_in_another_unit():
    assert interpreted(CROSS_UNIT) == 1
    results = compiled_results(CROSS_UNIT)
    assert len(results) == 6
    assert set(results.values()) == {1}


# -- composed flows ------------------------------------------------------------
#
# Each shape passes the current pointer value ``v`` on through one kind of
# flow and returns the expression that now holds it.  Every shape also
# lets ``&y`` reach the new holder, so a holder that loses ``&x`` still
# has a non-empty points-to set (an empty one would fall back to TOP and
# hide the loss).


def _declared(k: int, v: str, defs: list[str], body: list[str], tail: list[str]) -> str:
    body.append(f"int *d{k} = {v};")
    tail.append(f"d{k} = &y;")
    return f"d{k}"


def _returned_call(k: int, v: str, defs: list[str], body: list[str], tail: list[str]) -> str:
    defs.append(f"int *id{k}(int *a) {{ return a; }}")
    defs.append(f"int *pick{k}(int *a, int c) {{ if (c) return id{k}(a); return &y; }}")
    return f"pick{k}({v}, 1)"


def _stored(k: int, v: str, defs: list[str], body: list[str], tail: list[str]) -> str:
    body += [f"int *a{k};", f"int **pa{k};", f"a{k} = &y;", f"pa{k} = &a{k};", f"*pa{k} = {v};"]
    return f"a{k}"


def _stored_by_callee(k: int, v: str, defs: list[str], body: list[str], tail: list[str]) -> str:
    defs.append(f"int setp{k}(int **pp, int *v) {{ *pp = v; return 0; }}")
    body += [f"int *b{k};", f"b{k} = &y;", f"setp{k}(&b{k}, {v});"]
    return f"b{k}"


FLOWS = (_declared, _returned_call, _stored, _stored_by_callee)
SINKS = ("local", "argument", "other-unit")


@st.composite
def flow_programs(draw) -> list[tuple[str, str]]:
    """One or two units whose ``main`` passes ``&x`` through a chain of
    flows, then stores through the result before it reads ``x``: in
    ``main`` itself, in a callee that is also called with ``&y``, or in
    a callee in another unit."""
    defs: list[str] = []
    body: list[str] = []
    tail: list[str] = []
    v = "&x"
    for k, flow in enumerate(draw(st.lists(st.sampled_from(FLOWS), min_size=1, max_size=4))):
        v = flow(k, v, defs, body, tail)
    sink = draw(st.sampled_from(SINKS))
    units = []
    if sink == "local":
        body += ["int *q;", f"q = {v};", "x = 5;", "*q = 1;", "t = x;"]
    elif sink == "argument":
        defs.append("int use(int *p) { x = 5; *p = 1; return x; }")
        body += ["use(&y);", f"t = use({v});"]
    else:
        defs.insert(0, "extern int f(int *q, int c);")
        body.append(f"t = f({v}, 1);")
        units.append(("u1.c", CROSS_UNIT_CALLEE))
    main = "int main() {\n    int t;\n" + "".join(f"    {s}\n" for s in body + tail)
    main += "    return t * 10 + x;\n}\n"
    units.insert(0, ("u0.c", GLOBALS + "\n".join(defs) + "\n" + main))
    return units


@settings(max_examples=25, deadline=None)
@given(flow_programs())
def test_composed_flows_return_the_interpreted_value(units):
    expected = interpreted(units)
    assert expected == 11
    for build, got in compiled_results(units).items():
        assert got == expected, build
