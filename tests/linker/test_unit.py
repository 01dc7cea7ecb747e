"""Link-phase summary extraction (``linker.unit``) and its name space."""

import pytest

from repro.analysis.alias import analyze_points_to
from repro.analysis.refmod import EffectSet, ForeignObject, RefModAnalysis, link_name
from repro.bench.registry import materialize
from repro.difftest.gen import generate_units
from repro.frontend import ast_nodes as ast
from repro.frontend import parse_and_check
from repro.linker import unit_weight
from repro.workloads.multifile import WHOLE_PROGRAM_WORKLOADS

#: one call in a declaration group's initializer, one in a ``for`` init
ONE_CALL_EACH = """int f(int x) { return x + 1; }
int g(int n) {
    int a, b = f(1);
    int i;
    for (i = f(2); i < n; i++) {
        a = a + i;
    }
    return a + b;
}
"""

#: three calls: malloc and keep in the group, keep in the ``for`` init
KEEP = """int *keep(int *p) { return p; }
int main() {
    int a, b = *keep(malloc(4));
    int i;
    for (i = *keep(&a); i < b; i++) {
        a = a + 1;
    }
    return a;
}
"""


def _sites(unit, fn):
    return sorted((c.callee, c.line) for c in unit.locals[fn].calls)


def test_group_and_for_init_calls_are_recorded_once(make_units):
    [unit] = make_units(("u.c", ONE_CALL_EACH))
    assert _sites(unit, "g") == [("f", 3), ("f", 5)]
    stmts = sum(len(ast.walk_stmts(fn.body)) for fn in unit.program.functions)
    # Σ_fn (4 + 2·stmts + calls), with g's two calls counted once each
    assert unit_weight(unit) == 4 * 2 + 2 * stmts + 2


def test_each_call_is_one_site(make_units):
    [unit] = make_units(("u.c", KEEP))
    assert _sites(unit, "main") == [("keep", 3), ("keep", 5), ("malloc", 3)]


#: unit-private storage of every kind: a static global, a static local,
#: a local array, an address-taken local and parameter, and a heap site
#: (the generated programs below name only globals)
PRIVATE = [
    (
        "u0.c",
        """int shared;
static int hidden;
int fill(int *p, int n);
int main() {
    int buf[8];
    int x;
    int *h;
    static int calls;
    h = malloc(16);
    *h = 1;
    calls = calls + 1;
    fill(buf, 8);
    fill(&x, 1);
    fill(h, 4);
    shared = buf[2] + x + hidden + calls;
    return shared;
}
""",
    ),
    (
        "u1.c",
        """int shared;
int fill(int *p, int n) {
    int i;
    int *q;
    q = &n;
    for (i = 0; i < *q; i++) {
        p[i] = i + shared;
    }
    return n;
}
""",
    ),
]

PROGRAMS = (
    [pytest.param(PRIVATE, id="private-storage")]
    + [pytest.param(list(p.units), id=p.name) for p in materialize("gen-multiunit-v1")]
    + [pytest.param(list(w.units), id=w.name) for w in WHOLE_PROGRAM_WORKLOADS]
    + [pytest.param(generate_units(seed), id=f"units-{seed}") for seed in range(40)]
)


def _summary_names(local):
    names = local.ref_names | local.mod_names
    for call in local.calls:
        for bind in call.bindings:
            if isinstance(bind, frozenset):
                names |= bind
    return names


@pytest.mark.parametrize("units", PROGRAMS)
def test_own_names_rebind_to_the_object_they_spell(make_units, units):
    """Every summary name for a unit's own storage is one that REF/MOD's
    rebinding in a fresh parse of the unit resolves back to an object of
    that spelling, so no cross-unit effect is lost to a naming skew."""
    for unit in make_units(*units):
        own = {
            n
            for local in unit.locals.values()
            for n in _summary_names(local)
            if n in unit.table.global_scope.names or n.startswith(f"{unit.filename}::")
        }
        program, table = parse_and_check(dict(units)[unit.filename], unit.filename)
        refmod = RefModAnalysis(program, table, analyze_points_to(program, table))
        bound = refmod._bind_linked(EffectSet(ref={ForeignObject(n) for n in own}))
        for obj in bound.ref:
            assert not isinstance(obj, ForeignObject), obj
        assert {link_name(obj, unit.filename) for obj in bound.ref} == own
