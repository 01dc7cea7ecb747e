"""Semantic analysis unit tests."""

import pytest

from repro.frontend import ast_nodes as ast
from repro.frontend import parse_and_check
from repro.frontend.errors import SemanticError
from repro.frontend.symbols import StorageClass
from repro.frontend.typesys import DOUBLE, INT, PointerType


def check(src: str):
    return parse_and_check(src)


class TestDeclarations:
    def test_global_symbol_storage(self):
        prog, _ = check("int g;\nvoid f() { g = 1; }")
        assert prog.globals[0].symbol.storage is StorageClass.GLOBAL

    def test_static_symbol_storage(self):
        prog, _ = check("static int s;\nvoid f() { s = 1; }")
        assert prog.globals[0].symbol.storage is StorageClass.STATIC

    def test_local_symbol_storage(self):
        prog, _ = check("void f() { int x; x = 1; }")
        assert prog.functions[0].body.stmts[0].symbol.storage is StorageClass.LOCAL

    def test_param_symbol(self):
        prog, _ = check("int f(int a) { return a; }")
        assert prog.functions[0].params[0].symbol.storage is StorageClass.PARAM

    def test_duplicate_global_rejected(self):
        with pytest.raises(SemanticError):
            check("int x;\nint x;")

    def test_duplicate_local_rejected(self):
        with pytest.raises(SemanticError):
            check("void f() { int x; int x; }")

    def test_shadowing_allowed_in_inner_scope(self):
        check("int x;\nvoid f() { int x; { int y; y = x; } }")

    def test_duplicate_function_rejected(self):
        with pytest.raises(SemanticError):
            check("void f() { }\nvoid f() { }")

    def test_undeclared_identifier(self):
        with pytest.raises(SemanticError):
            check("void f() { y = 1; }")

    def test_out_of_scope_use(self):
        with pytest.raises(SemanticError):
            check("void f() { { int x; } x = 1; }")


class TestDiagnosticPosition:
    BAD = "int f() {\n  int x;\n  return y;\n}\n"

    def test_error_names_the_unit_file(self):
        with pytest.raises(SemanticError) as info:
            parse_and_check(self.BAD, "b.c")
        assert (info.value.pos.filename, info.value.pos.line) == ("b.c", 3)
        assert str(info.value) == "b.c:3:1: use of undeclared identifier 'y'"


class TestTypes:
    def _expr_type(self, decls: str, expr: str):
        prog, _ = check(f"{decls}\nvoid f() {{ probe_target = {expr}; }}".replace(
            "probe_target", "probe"
        ))
        stmt = prog.functions[0].body.stmts[-1]
        return stmt.expr.value.ty

    def test_int_arithmetic(self):
        prog, _ = check("int a;\nint b;\nvoid f() { a = a + b; }")
        e = prog.functions[0].body.stmts[0].expr
        assert e.value.ty == INT

    def test_mixed_promotes_to_double(self):
        prog, _ = check("int a;\ndouble d;\nvoid f() { d = a + d; }")
        e = prog.functions[0].body.stmts[0].expr
        assert e.value.ty == DOUBLE

    def test_comparison_is_int(self):
        prog, _ = check("double d;\nvoid f() { int x; x = d < 1.0; }")
        e = prog.functions[0].body.stmts[1].expr
        assert e.value.ty == INT

    def test_array_indexing_type(self):
        prog, _ = check("double m[4][5];\nvoid f() { double x; x = m[1][2]; }")
        e = prog.functions[0].body.stmts[1].expr
        assert e.value.ty == DOUBLE

    def test_address_of_type(self):
        prog, _ = check("void f() { int x; int *p; p = &x; }")
        e = prog.functions[0].body.stmts[2].expr
        assert isinstance(e.value.ty, PointerType)

    def test_deref_type(self):
        prog, _ = check("int *p;\nvoid f() { int x; x = *p; }")
        e = prog.functions[0].body.stmts[1].expr
        assert e.value.ty == INT

    def test_call_return_type(self):
        prog, _ = check("double g() { return 1.0; }\nvoid f() { double x; x = g(); }")
        e = prog.functions[1].body.stmts[1].expr
        assert e.value.ty == DOUBLE

    def test_external_math(self):
        prog, _ = check("void f() { double x; x = sqrt(2.0); }")


class TestChecks:
    def test_subscript_non_array_rejected(self):
        with pytest.raises(SemanticError):
            check("int x;\nvoid f() { x = x[0]; }")

    def test_float_subscript_rejected(self):
        with pytest.raises(SemanticError):
            check("int a[4];\nvoid f() { double d; a[d] = 1; }")

    def test_assign_to_array_rejected(self):
        with pytest.raises(SemanticError):
            check("int a[4];\nint b[4];\nvoid f() { a = b; }")

    def test_assign_to_literal_rejected(self):
        with pytest.raises(SemanticError):
            check("void f() { 3 = 4; }")

    def test_return_value_from_void_rejected(self):
        with pytest.raises(SemanticError):
            check("void f() { return 3; }")

    def test_missing_return_value_rejected(self):
        with pytest.raises(SemanticError):
            check("int f() { return; }")

    def test_break_outside_loop_rejected(self):
        with pytest.raises(SemanticError):
            check("void f() { break; }")

    def test_wrong_arity_rejected(self):
        with pytest.raises(SemanticError):
            check("int g(int a) { return a; }\nvoid f() { g(1, 2); }")

    def test_unknown_call_rejected(self):
        with pytest.raises(SemanticError):
            check("void f() { mystery(); }")

    def test_deref_non_pointer_rejected(self):
        with pytest.raises(SemanticError):
            check("int x;\nvoid f() { x = *x; }")

    def test_field_of_non_struct_rejected(self):
        with pytest.raises(SemanticError):
            check("int x;\nvoid f() { x = x.field; }")


class TestAddressTaken:
    def test_address_of_marks_symbol(self):
        prog, _ = check("void f() { int x; int *p; p = &x; }")
        x = prog.functions[0].body.stmts[0].symbol
        assert x.address_taken
        assert x.in_memory

    def test_plain_local_not_in_memory(self):
        prog, _ = check("void f() { int x; x = 1; }")
        x = prog.functions[0].body.stmts[0].symbol
        assert not x.address_taken
        assert not x.in_memory

    def test_global_always_in_memory(self):
        prog, _ = check("int g;\nvoid f() { g = 1; }")
        assert prog.globals[0].symbol.in_memory

    def test_local_array_in_memory(self):
        prog, _ = check("void f() { int a[4]; a[0] = 1; }")
        assert prog.functions[0].body.stmts[0].symbol.in_memory

    def test_mutual_recursion_allowed(self):
        check(
            "int odd(int n);\n".replace("int odd(int n);\n", "")
            + "int even(int n) { if (n == 0) return 1; return oddp(n - 1); }\n"
            "int oddp(int n) { if (n == 0) return 0; return even(n - 1); }"
        )
