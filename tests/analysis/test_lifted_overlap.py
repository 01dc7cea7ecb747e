"""Unit tests for the lifted-reference overlap machinery.

When a sub-region's class is lifted into an enclosing region, its
references range over all iterations of the intervening loops — the
``may_overlap`` / ``class_loop_carried`` tests must quantify those
induction variables existentially and independently per side.  These are
the rules behind Figure 2's ``b[0]`` / ``b[0..9]`` alias entry.
"""

from repro.analysis.builder import build_hli
from repro.analysis.depend import (
    DepResult,
    MemberRef,
    class_loop_carried,
    may_overlap,
)
from repro.analysis.items import AccessKind
from repro.frontend import parse_and_check


def build_nested(body_inner: str, outer_extra: str = "", inner_range=(1, 10)):
    src = f"""int a[200];
int b[200];
void f() {{
    int i, j;
    for (i = 0; i < 10; i++) {{
{outer_extra}
        for (j = {inner_range[0]}; j < {inner_range[1]}; j++) {{
{body_inner}
        }}
    }}
}}
"""
    prog, table = parse_and_check(src)
    _, info = build_hli(prog, table)
    unit = info.units["f"]
    outer = unit.root.children[0]
    inner = outer.children[0]
    return unit, outer, inner


def member(unit, text, home, kind=None):
    for it in unit.items:
        if it.ref is not None and str(it.ref) == text:
            if kind is None or it.kind is kind:
                return MemberRef(
                    ref=it.ref,
                    is_store=it.kind is AccessKind.STORE,
                    home=home,
                    epochs=it.epochs,
                )
    raise AssertionError(text)


class TestMayOverlapLifted:
    def test_fixed_element_vs_lifted_range_overlapping(self):
        # b[0] in the outer loop vs b[j-1] lifted from j in 1..10 (= b[0..8])
        unit, outer, inner = build_nested(
            "            b[j] = b[j] + b[j-1];",
            outer_extra="        a[i] = b[0];",
        )
        b0 = member(unit, "b[0]", outer)
        bj1 = member(unit, "b[j-1]", inner)
        assert may_overlap(b0, bj1, outer) is DepResult.MAYBE

    def test_fixed_element_vs_disjoint_lifted_range(self):
        # b[150] vs b[j] for j in 1..10: provably disjoint
        unit, outer, inner = build_nested(
            "            b[j] = b[j] + 1;",
            outer_extra="        a[i] = b[150];",
        )
        b150 = member(unit, "b[150]", outer)
        bj = member(unit, "b[j]", inner, AccessKind.STORE)
        assert may_overlap(b150, bj, outer) is DepResult.NONE

    def test_identical_lifted_sets_definite(self):
        # two b[j] refs lifted to the outer region cover identical sets
        unit, outer, inner = build_nested("            b[j] = b[j] + 1;")
        ld = member(unit, "b[j]", inner, AccessKind.LOAD)
        st = member(unit, "b[j]", inner, AccessKind.STORE)
        assert may_overlap(ld, st, outer) is DepResult.DEF

    def test_shifted_lifted_sets_maybe(self):
        # b[j] vs b[j-1] as sets over j: overlapping but not identical
        unit, outer, inner = build_nested("            b[j] = b[j-1];")
        st = member(unit, "b[j]", inner, AccessKind.STORE)
        ld = member(unit, "b[j-1]", inner)
        assert may_overlap(st, ld, outer) is DepResult.MAYBE

    def test_gcd_separates_parity(self):
        # 2j vs 2j+1: even vs odd elements never meet, even as sets
        unit, outer, inner = build_nested("            b[2*j] = b[2*j+1];")
        st = member(unit, "b[2*j]", inner, AccessKind.STORE)
        ld = member(unit, "b[2*j+1]", inner)
        assert may_overlap(st, ld, outer) is DepResult.NONE

    def test_different_bases_handled_elsewhere(self):
        unit, outer, inner = build_nested("            a[j] = b[j];")
        a = member(unit, "a[j]", inner, AccessKind.STORE)
        b = member(unit, "b[j]", inner)
        # cross-base comparisons are the alias analysis' job
        assert may_overlap(a, b, outer) is DepResult.MAYBE


class TestClassLoopCarriedLifted:
    def test_identical_lifted_recur_every_outer_iteration(self):
        unit, outer, inner = build_nested("            b[j] = b[j] + 1;")
        st = member(unit, "b[j]", inner, AccessKind.STORE)
        res = class_loop_carried(st, st, outer)
        assert res.result is DepResult.DEF
        assert res.any_distance

    def test_outer_indexed_ref_no_carried_dep(self):
        # a[i] inside the j loop, tested against the i loop: i-indexed, no recurrence
        unit, outer, inner = build_nested("            a[i] = a[i] + b[j];")
        ai = member(unit, "a[i]", inner, AccessKind.STORE)
        res = class_loop_carried(ai, ai, outer)
        assert res.result is DepResult.NONE

    def test_mixed_subscript_conservative(self):
        # a[i + j] may revisit elements across outer iterations
        unit, outer, inner = build_nested("            a[i + j] = 1;")
        aij = member(unit, "a[i+j]", inner, AccessKind.STORE)
        res = class_loop_carried(aij, aij, outer)
        assert res.result is DepResult.MAYBE

    def test_inner_test_still_exact(self):
        # within the inner loop itself, exact strong-SIV distances survive
        unit, outer, inner = build_nested("            b[j] = b[j-3];", inner_range=(3, 10))
        st = member(unit, "b[j]", inner, AccessKind.STORE)
        ld = member(unit, "b[j-3]", inner)
        res = class_loop_carried(st, ld, inner)
        assert res.result is DepResult.DEF
        assert res.distance == 3
