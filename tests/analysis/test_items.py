"""ITEMGEN tests: what generates items and in which canonical order."""

from repro.analysis.builder import build_hli
from repro.analysis.items import AccessKind, AccessRole
from repro.frontend import parse_and_check
from repro.hli.tables import ItemType


def items_of(src: str, fn: str = "f"):
    prog, table = parse_and_check(src)
    _, info = build_hli(prog, table)
    return info.units[fn].items


def line_table_of(src: str, fn: str = "f"):
    prog, table = parse_and_check(src)
    hli, _ = build_hli(prog, table)
    return hli.entry(fn).line_table


class TestWhatGeneratesItems:
    def test_register_locals_generate_nothing(self):
        items = items_of("void f() { int x, y; x = 1; y = x + 2; }")
        assert items == []

    def test_global_scalar_generates_items(self):
        items = items_of("int g;\nvoid f() { g = g + 1; }")
        kinds = [it.kind for it in items]
        assert kinds == [AccessKind.LOAD, AccessKind.STORE]

    def test_array_access_generates_items(self):
        items = items_of("int a[4];\nvoid f() { a[0] = a[1]; }")
        assert [it.kind for it in items] == [AccessKind.LOAD, AccessKind.STORE]

    def test_local_array_generates_items(self):
        items = items_of("void f() { int a[4]; a[0] = 1; }")
        assert [it.kind for it in items] == [AccessKind.STORE]

    def test_address_taken_local_generates_items(self):
        items = items_of("void f() { int x; int *p; p = &x; x = 3; }")
        assert AccessKind.STORE in {it.kind for it in items}

    def test_call_generates_call_item(self):
        items = items_of("void g() { }\nvoid f() { g(); }")
        assert [it.kind for it in items] == [AccessKind.CALL]
        assert items[0].callee == "g"

    def test_deref_generates_item(self):
        items = items_of("int g;\nvoid f() { int *p; p = &g; *p = 1; }")
        stores = [it for it in items if it.kind is AccessKind.STORE]
        assert any(it.ref is not None and it.ref.is_deref for it in stores)

    def test_stack_args_beyond_four(self):
        src = (
            "int g6(int a, int b, int c, int d, int e, int f) { return a + f; }\n"
            "void f() { g6(1, 2, 3, 4, 5, 6); }"
        )
        items = items_of(src)
        stack_stores = [it for it in items if it.role is AccessRole.STACK_ARG]
        assert len(stack_stores) == 2  # args 5 and 6
        # and the callee loads its stack params at entry
        callee_items = items_of(src, "g6")
        entry_loads = [it for it in callee_items if it.role is AccessRole.ENTRY_PARAM]
        assert len(entry_loads) == 2

    def test_item_ids_unique_and_ascending(self):
        items = items_of(
            "int a[8];\nint s;\nvoid f() { int i; for (i = 0; i < 8; i++) s = s + a[i]; }"
        )
        ids = [it.item_id for it in items]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)


class TestCanonicalOrder:
    def test_value_before_store(self):
        items = items_of("int a[4];\nint b[4];\nvoid f() { a[0] = b[1]; }")
        assert items[0].kind is AccessKind.LOAD  # b[1] read first
        assert str(items[0].ref) == "b[1]"
        assert items[1].kind is AccessKind.STORE

    def test_compound_assign_load_then_store(self):
        items = items_of("int a[4];\nvoid f() { a[2] += 5; }")
        assert [it.kind for it in items] == [AccessKind.LOAD, AccessKind.STORE]
        assert str(items[0].ref) == str(items[1].ref) == "a[2]"

    def test_binary_lhs_before_rhs(self):
        items = items_of("int a[4];\nint b[4];\nint s;\nvoid f() { s = a[0] + b[0]; }")
        assert str(items[0].ref) == "a[0]"
        assert str(items[1].ref) == "b[0]"

    def test_index_expr_loads_before_element(self):
        items = items_of("int a[8];\nint k;\nvoid f() { int x; x = a[k]; }")
        # k is a global scalar: loaded while computing the address
        assert str(items[0].ref) == "k"
        assert str(items[1].ref) == "a[k]"

    def test_call_args_left_to_right(self):
        src = (
            "int a[4];\nint b[4];\nint g(int x, int y) { return x + y; }\n"
            "void f() { g(a[0], b[0]); }"
        )
        items = items_of(src)
        assert [str(it.ref) for it in items[:2]] == ["a[0]", "b[0]"]
        assert items[2].kind is AccessKind.CALL

    def test_for_line_order_init_cond_step(self):
        src = "int n;\nint a[64];\nvoid f() { int i; for (i = n; i < n; i++) { } }"
        lt = line_table_of(src)
        # both init and cond load n on the for line, in that order
        line = 3
        entries = lt.items_on_line(line)
        assert [ty for _, ty in entries] == [ItemType.LOAD, ItemType.LOAD]

    def test_line_table_matches_item_lines(self):
        src = "int a[4];\nvoid f() {\n    a[0] = 1;\n    a[1] = 2;\n}"
        lt = line_table_of(src)
        assert len(lt.items_on_line(3)) == 1
        assert len(lt.items_on_line(4)) == 1


class TestSymbolicRefs:
    def refs(self, src, fn="f"):
        return [it.ref for it in items_of(src, fn) if it.ref is not None]

    def test_scalar_ref(self):
        (r,) = self.refs("int g;\nvoid f() { g = 1; }")
        assert r.base.name == "g"
        assert not r.is_deref and r.subscripts == ()

    def test_array_affine_subscript(self):
        src = "int a[100];\nvoid f() { int i; for (i = 0; i < 4; i++) a[2*i+1] = 0; }"
        refs = self.refs(src)
        (r,) = refs
        assert r.subscripts[0] is not None
        assert r.subscripts[0].const == 1

    def test_multidim_subscripts(self):
        src = "double m[4][8];\nvoid f() { int i, j; i = j = 0; m[i][j+1] = 0.0; }"
        refs = [r for r in self.refs(src) if r.base and r.base.name == "m"]
        (r,) = refs
        assert len(r.subscripts) == 2

    def test_pointer_deref_ref(self):
        src = "int g;\nvoid f() { int *p; p = &g; *p = 2; }"
        refs = self.refs(src)
        deref = [r for r in refs if r.is_deref]
        assert deref and deref[0].base.name == "p"

    def test_pointer_offset_deref(self):
        src = "int a[8];\nvoid f() { int *p; p = a; *(p + 3) = 1; }"
        refs = self.refs(src)
        deref = [r for r in refs if r.is_deref]
        assert deref[0].deref_offset is not None
        assert deref[0].deref_offset.const == 3

    def test_epochs_distinguish_mutation(self):
        src = (
            "int a[16];\nvoid f() { int j; j = 1;\n"
            "    a[j] = 1;\n"
            "    j = j + 1;\n"
            "    a[j] = 2;\n"
            "}"
        )
        items = items_of(src)
        stores = [it for it in items if it.kind is AccessKind.STORE]
        assert len(stores) == 2
        assert stores[0].epochs != stores[1].epochs
