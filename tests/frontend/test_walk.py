"""The statement-walk rule the whole-function analyses share.

``walk_own_stmts`` plus ``stmt_exprs`` must reach every expression of a
function exactly once (points-to mints one heap object per visit of a
``malloc``, and the link phase records one call site per visit), and
reach the same expressions as ``walk_stmts`` plus ``stmt_exprs``.
"""

from collections import Counter

import pytest

from repro.bench.registry import materialize, set_names
from repro.difftest.gen import generate
from repro.frontend import ast_nodes as ast
from repro.frontend import parse_and_check

#: initialized declaration groups, in a block and in a ``for`` init
GROUPS = """int f(int x) { return x + 1; }
int g(int n) {
    int a, b = f(1), c = 2;
    int i;
    for (i = f(2); i < n; i++) {
        int d = f(i), e;
        a = a + d;
    }
    return a + b + c;
}
"""


def _units(name):
    if name == "difftest":
        return [(f"seed-{seed}.c", generate(seed)) for seed in range(300)]
    if name == "groups":
        return [("groups.c", GROUPS)]
    return [unit for prog in materialize(name) for unit in prog.units]


def _reached(stmts):
    return Counter(
        id(x) for s in stmts for e in ast.stmt_exprs(s) for x in ast.walk_exprs(e)
    )


@pytest.mark.parametrize("name", [*set_names(), "difftest", "groups"])
def test_own_statements_reach_each_expression_once(name):
    for filename, source in _units(name):
        program, _table = parse_and_check(source, filename)
        for fn in program.functions:
            assert fn.body is not None
            once = _reached(ast.walk_own_stmts(fn.body))
            assert set(once.values()) == {1}, f"{filename}:{fn.name}"
            assert once.keys() == _reached(ast.walk_stmts(fn.body)).keys()
