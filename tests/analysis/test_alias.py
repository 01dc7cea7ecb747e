"""Points-to analysis tests."""

from repro.analysis.alias import HeapObject, analyze_points_to
from repro.frontend import parse_and_check
from repro.frontend.symbols import Symbol


def solve(src: str):
    prog, table = parse_and_check(src)
    return prog, analyze_points_to(prog, table)


def sym_named(prog, fn, name):
    from repro.frontend import ast_nodes as ast

    f = prog.function(fn)
    for s in ast.walk_stmts(f.body):
        if isinstance(s, ast.VarDecl) and s.name == name:
            return s.symbol
    for p in f.params:
        if p.name == name:
            return p.symbol
    raise AssertionError(name)


def global_sym(prog, name):
    for g in prog.globals:
        if g.name == name:
            return g.symbol
    raise AssertionError(name)


class TestBasicPointsTo:
    def test_address_of(self):
        prog, pts = solve("int x;\nvoid f() { int *p; p = &x; *p = 1; }")
        p = sym_named(prog, "f", "p")
        x = global_sym(prog, "x")
        assert pts.targets(p) == {x}

    def test_copy_propagation(self):
        prog, pts = solve(
            "int x;\nvoid f() { int *p; int *q; p = &x; q = p; *q = 1; }"
        )
        q = sym_named(prog, "f", "q")
        x = global_sym(prog, "x")
        assert x in pts.targets(q)

    def test_two_targets(self):
        prog, pts = solve(
            "int x;\nint y;\n"
            "void f(int c) { int *p; if (c) p = &x; else p = &y; *p = 1; }"
        )
        p = sym_named(prog, "f", "p")
        names = {t.name for t in pts.targets(p) if isinstance(t, Symbol)}
        assert names == {"x", "y"}

    def test_array_decay(self):
        prog, pts = solve("int a[8];\nvoid f() { int *p; p = a; *p = 1; }")
        p = sym_named(prog, "f", "p")
        a = global_sym(prog, "a")
        assert a in pts.targets(p)

    def test_pointer_arithmetic_keeps_base(self):
        prog, pts = solve("int a[8];\nvoid f() { int *p; p = a + 2; *p = 1; }")
        p = sym_named(prog, "f", "p")
        a = global_sym(prog, "a")
        assert a in pts.targets(p)

    def test_malloc_creates_heap_object(self):
        prog, pts = solve("void f() { int *p; p = malloc(16); *p = 1; }")
        p = sym_named(prog, "f", "p")
        targets = pts.targets(p)
        assert any(isinstance(t, HeapObject) for t in targets)

    def test_malloc_in_a_declaration_group_is_one_heap_object(self):
        prog, pts = solve(
            "int *keep(int *p) { return p; }\n"
            "int main() {\n"
            "    int a, b = *keep(malloc(4));\n"
            "    return b;\n"
            "}\n"
        )
        p = sym_named(prog, "keep", "p")
        heap = {t.name for t in pts.points_to[p] if isinstance(t, HeapObject)}
        assert heap == {"heap@3#1"}

    def test_uninitialized_pointer_is_top(self):
        prog, pts = solve("int x;\nvoid f(int *p) { *p = 1; x = 2; }")
        p = sym_named(prog, "f", "p")
        x = global_sym(prog, "x")
        # no call sites constrain p: it may point anywhere addressable
        assert x in pts.targets(p)


class TestInterprocedural:
    def test_arg_flows_to_param(self):
        src = (
            "int a[8];\nint b[8];\n"
            "void g(int *p) { *p = 1; }\n"
            "void f() { g(a); }"
        )
        prog, pts = solve(src)
        p = sym_named(prog, "g", "p")
        a = global_sym(prog, "a")
        b = global_sym(prog, "b")
        assert a in pts.targets(p)
        assert b not in pts.targets(p)

    def test_multiple_call_sites_union(self):
        src = (
            "int a[8];\nint b[8];\n"
            "void g(int *p) { *p = 1; }\n"
            "void f() { g(a); g(b); }"
        )
        prog, pts = solve(src)
        p = sym_named(prog, "g", "p")
        names = {t.name for t in pts.targets(p) if isinstance(t, Symbol)}
        assert {"a", "b"} <= names

    def test_returned_pointer(self):
        src = (
            "int a[8];\n"
            "int *pick() { return a; }\n"
            "void f() { int *p; p = pick(); *p = 1; }"
        )
        prog, pts = solve(src)
        p = sym_named(prog, "f", "p")
        a = global_sym(prog, "a")
        assert a in pts.targets(p)

    def test_may_alias_symbols(self):
        src = (
            "int x;\nint y;\n"
            "void f() { int *p; int *q; p = &x; q = &x; *p = *q; }"
        )
        prog, pts = solve(src)
        p = sym_named(prog, "f", "p")
        q = sym_named(prog, "f", "q")
        assert pts.may_alias_symbols(p, q)

    def test_no_alias_between_disjoint(self):
        src = (
            "int x;\nint y;\n"
            "void f() { int *p; int *q; p = &x; q = &y; *p = *q; }"
        )
        prog, pts = solve(src)
        p = sym_named(prog, "f", "p")
        q = sym_named(prog, "f", "q")
        assert not pts.may_alias_symbols(p, q)
