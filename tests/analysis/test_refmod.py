"""Interprocedural REF/MOD analysis tests."""

from repro.analysis.alias import analyze_points_to
from repro.analysis.refmod import analyze_refmod
from repro.frontend import parse_and_check


def effects(src: str):
    prog, table = parse_and_check(src)
    pts = analyze_points_to(prog, table)
    return prog, analyze_refmod(prog, table, pts)


def names(objset):
    return {o.name for o in objset if hasattr(o, "name")}


class TestLocalEffects:
    def test_reads_global(self):
        _, eff = effects("int g;\nint f() { return g; }")
        assert names(eff["f"].ref) == {"g"}
        assert eff["f"].mod == set()

    def test_writes_global(self):
        _, eff = effects("int g;\nvoid f() { g = 1; }")
        assert names(eff["f"].mod) == {"g"}

    def test_array_effects(self):
        _, eff = effects("int a[4];\nint b[4];\nvoid f() { a[0] = b[1]; }")
        assert names(eff["f"].ref) == {"b"}
        assert names(eff["f"].mod) == {"a"}

    def test_pure_locals_invisible(self):
        _, eff = effects("int f() { int x; x = 3; return x; }")
        assert eff["f"].ref == set() and eff["f"].mod == set()

    def test_deref_through_points_to(self):
        src = "int a[4];\nvoid g(int *p) { *p = 1; }\nvoid f() { g(a); }"
        _, eff = effects(src)
        assert "a" in names(eff["g"].mod)


class TestTransitiveEffects:
    def test_callee_effects_propagate(self):
        src = (
            "int g;\n"
            "void inner() { g = 1; }\n"
            "void outer() { inner(); }"
        )
        _, eff = effects(src)
        assert names(eff["outer"].mod) == {"g"}

    def test_recursion_terminates(self):
        src = (
            "int g;\n"
            "void r(int n) { g = g + n; if (n > 0) r(n - 1); }"
        )
        _, eff = effects(src)
        assert "g" in names(eff["r"].mod)

    def test_mutual_recursion(self):
        src = (
            "int x;\nint y;\n"
            "void a(int n) { x = n; if (n) b(n - 1); }\n"
            "void b(int n) { y = n; if (n) a(n - 1); }"
        )
        _, eff = effects(src)
        assert {"x", "y"} <= names(eff["a"].mod)
        assert {"x", "y"} <= names(eff["b"].mod)


class TestExternals:
    def test_pure_external_empty(self):
        _, eff = effects("double f(double x) { return sqrt(x); }")
        assert eff["sqrt"].ref == set()
        assert eff["sqrt"].mod == set()
        assert eff["f"].mod == set()

    def test_impure_external_clobbers(self):
        _, eff = effects('void f() { printf("hi"); }')
        assert eff["printf"].clobbers_all
        assert eff["f"].clobbers_all

    def test_getchar_is_pure_for_memory(self):
        _, eff = effects("int f() { return getchar(); }")
        assert not eff["f"].clobbers_all
