"""AST → RTL lowering (the back-end's code generator).

Follows the GCC behaviours that ITEMGEN assumes (paper Section 3.1.1):

* local scalar variables and temporaries live in pseudo-registers — no
  memory traffic;
* globals, statics, arrays, structs and address-taken locals live in
  memory;
* outgoing arguments beyond :data:`~repro.analysis.items.NUM_ARG_REGS`
  are stored to the stack argument area; stack parameters are loaded at
  function entry;
* memory references are emitted in the canonical order defined by
  :mod:`repro.analysis.items` — the lowering *asserts* this contract on
  every statement by popping the expected access queue as it emits, so
  any divergence fails loudly instead of silently desynchronizing the
  HLI mapping.

Memory-resident storage is laid out statically (one frame per function,
allocated in the global address space).  This forgoes re-entrant frames —
benchmark workloads avoid recursion through memory-resident locals — and
is documented as a substitution in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.items import (
    Access,
    AccessKind,
    AccessRole,
    NUM_ARG_REGS,
    arg_slot_symbol,
    walk_rvalue,
    walk_stmt_accesses,
)
from ..frontend import ast_nodes as ast
from ..frontend.errors import LoweringError
from ..frontend.symbols import StorageClass, Symbol, SymbolTable
from ..frontend.typesys import ArrayType, PointerType, StructType, Type
from .rtl import Insn, MemRef, Opcode, Reg, RTLFunction, RTLProgram, new_reg

_BINOP_CODE = {
    ast.BinOp.ADD: Opcode.ADD,
    ast.BinOp.SUB: Opcode.SUB,
    ast.BinOp.MUL: Opcode.MUL,
    ast.BinOp.DIV: Opcode.DIV,
    ast.BinOp.MOD: Opcode.MOD,
    ast.BinOp.BITAND: Opcode.AND,
    ast.BinOp.BITOR: Opcode.OR,
    ast.BinOp.BITXOR: Opcode.XOR,
    ast.BinOp.SHL: Opcode.SHL,
    ast.BinOp.SHR: Opcode.SHR,
    ast.BinOp.LT: Opcode.SLT,
    ast.BinOp.LE: Opcode.SLE,
    ast.BinOp.EQ: Opcode.SEQ,
    ast.BinOp.NE: Opcode.SNE,
}

_ASSIGN_BINOP = {
    ast.AssignOp.ADD: Opcode.ADD,
    ast.AssignOp.SUB: Opcode.SUB,
    ast.AssignOp.MUL: Opcode.MUL,
    ast.AssignOp.DIV: Opcode.DIV,
}


def _unique_name(fn_name: str, sym: Symbol, ordinal: int) -> str:
    """Globally unique storage name for a local memory-resident symbol.

    The suffix is the per-function *allocation ordinal*, not the
    translation-unit-wide symbol uid: lowering an unchanged function must
    produce identical storage names no matter what the rest of the file
    looks like, or per-function cached RTL could never be spliced into a
    recompiled unit (and would not match a from-scratch compile).
    """
    return f"{fn_name}.{sym.name}.{ordinal}"


@dataclass
class _LoopLabels:
    break_to: str
    continue_to: str


class ProgramLowering:
    """Lower a whole checked program to RTL, laying out global storage."""

    BASE_ADDRESS = 0x1000
    HEAP_BASE = 0x4000000

    def __init__(
        self,
        program: ast.Program,
        table: SymbolTable,
        cached: Optional[dict[str, "RTLFunction"]] = None,
    ) -> None:
        self.program = program
        self.table = table
        self.rtl = RTLProgram()
        self._next_addr = self.BASE_ADDRESS
        #: pre-lowered functions spliced in from the per-function cache
        self.cached = cached or {}

    def run(self) -> RTLProgram:
        # Lay out globals (incl. arg slots) first so every function sees them.
        for decl in self.program.globals:
            sym = decl.symbol
            if isinstance(sym, Symbol):
                self._alloc(sym.name, max(sym.ty.size(), 1))
        for k in range(NUM_ARG_REGS, 16):
            self._alloc(arg_slot_symbol(k).name, 4)
        for fn in self.program.functions:
            cached_fn = self.cached.get(fn.name)
            if cached_fn is not None:
                self._splice(cached_fn)
                continue
            lowering = FunctionLowering(fn, self)
            self.rtl.functions[fn.name] = lowering.run()
        self._init_globals()
        return self.rtl

    def _splice(self, fn: "RTLFunction") -> None:
        """Adopt a cached function, replaying its frame layout in place.

        The cached body is position-independent (all memory access is
        symbolic), but its locals still need addresses.  Replaying the
        recorded ``(name, size)`` allocations *at this function's slot in
        program order* reproduces exactly the layout a from-scratch
        compile of the whole file would have produced.
        """
        for name, (_addr, raw_size) in fn.frame.items():
            addr = self._alloc(name, raw_size)
            fn.frame[name] = (addr, raw_size)
        self.rtl.functions[fn.name] = fn

    def _alloc(self, name: str, size: int) -> int:
        if name in self.rtl.globals_layout:
            return self.rtl.globals_layout[name][0]
        addr = self._next_addr
        # 8-byte align every object: doubles need it and it keeps widths simple.
        size = (size + 7) // 8 * 8
        self.rtl.globals_layout[name] = (addr, size)
        self._next_addr += size
        return addr

    def alloc_local(self, name: str, size: int) -> int:
        return self._alloc(name, size)

    def _init_globals(self) -> None:
        """Record the literal initializers of global scalars (semantic
        analysis rejects any other global initializer)."""
        for decl in self.program.globals:
            sym = decl.symbol
            if not isinstance(sym, Symbol) or decl.init is None:
                continue
            assert isinstance(decl.init, (ast.IntLit, ast.FloatLit))
            addr, _ = self.rtl.globals_layout[sym.name]
            self.rtl.init_data[addr] = decl.init.value


class FunctionLowering:
    """Lower one function; enforces the item-order contract as it emits."""

    def __init__(self, fn: ast.FuncDef, parent: ProgramLowering) -> None:
        self.fn = fn
        self.parent = parent
        self.out = RTLFunction(name=fn.name)
        #: symbol uid -> value register (register-promoted scalars)
        self.reg_of: dict[int, Reg] = {}
        #: symbol uid -> storage name (memory-resident variables)
        self.mem_name: dict[int, str] = {}
        self._labels = 0
        self._loop_stack: list[_LoopLabels] = []
        #: the access queue being checked against (the ITEMGEN contract)
        self._expected: list[Access] = []

    # -- helpers -----------------------------------------------------------

    def _label(self, tag: str) -> str:
        self._labels += 1
        return f".{self.fn.name}.{tag}{self._labels}"

    def emit(self, insn: Insn) -> Insn:
        self.out.insns.append(insn)
        return insn

    def _expect(self, accesses) -> None:
        self._expected.extend(accesses)

    def _check_emit_mem(
        self, node: ast.Expr, kind: AccessKind, insn: Insn
    ) -> Insn:
        """Emit a memory-touching insn, consuming the expected-access queue."""
        if not self._expected:
            raise LoweringError(
                f"item-order contract: unexpected {kind.value} at line {insn.line}"
            )
        exp = self._expected.pop(0)
        if exp.node is not node or exp.kind is not kind:
            raise LoweringError(
                f"item-order contract: expected {exp.kind.value} of "
                f"{type(exp.node).__name__} (line {exp.line}), emitting "
                f"{kind.value} of {type(node).__name__} (line {insn.line})"
            )
        return self.emit(insn)

    def _drain_check(self, context: str) -> None:
        if self._expected:
            exp = self._expected[0]
            raise LoweringError(
                f"item-order contract: {len(self._expected)} unemitted accesses "
                f"after {context} (next: {exp.kind.value} line {exp.line})"
            )

    # -- storage ------------------------------------------------------------

    def _storage_name(self, sym: Symbol) -> str:
        """Memory storage name for a memory-resident symbol.

        First use allocates storage and records the ``(name, size)`` pair
        in ``out.frame`` — the replay script that lets the incremental
        driver splice this function into a later compile without
        re-lowering it (see :meth:`ProgramLowering._splice`).
        """
        if sym.storage is StorageClass.GLOBAL:
            return sym.name
        name = self.mem_name.get(sym.uid)
        if name is None:
            name = _unique_name(self.fn.name, sym, len(self.mem_name) + 1)
            size = max(sym.ty.size(), 1)
            addr = self.parent.alloc_local(name, size)
            self.out.frame[name] = (addr, size)
            self.out.frame_size += size
            self.mem_name[sym.uid] = name
        return name

    def _value_reg(self, sym: Symbol) -> Reg:
        reg = self.reg_of.get(sym.uid)
        if reg is None:
            reg = new_reg(is_float=sym.ty.is_float, name=sym.name)
            self.reg_of[sym.uid] = reg
        return reg

    @staticmethod
    def _width_of(ty: Optional[Type]) -> int:
        if ty is None:
            return 4
        size = ty.size()
        return size if size in (1, 4, 8) else 4

    # -- entry point ---------------------------------------------------------

    def run(self) -> RTLFunction:
        self._lower_entry()
        assert self.fn.body is not None
        for stmt in self.fn.body.stmts:
            self._stmt(stmt)
        # Implicit return for void functions.
        self.emit(Insn(Opcode.RET, line=self.fn.line))
        return self.out

    def _lower_entry(self) -> None:
        """Parameter setup, mirroring the builder's entry-item generation."""
        for idx, p in enumerate(self.fn.params):
            sym = p.symbol
            if not isinstance(sym, Symbol):
                continue
            reg = self._value_reg(sym)
            if idx < NUM_ARG_REGS:
                self.out.param_regs.append(reg)
            if idx >= NUM_ARG_REGS:
                # Stack parameter: load from the incoming arg slot.
                slot = arg_slot_symbol(idx).name
                addr = new_reg(name=f"&{slot}")
                self.emit(Insn(Opcode.LA, dst=addr, symbol=slot, line=self.fn.line))
                name = ast.Name(line=self.fn.line, ident=p.name)
                name.symbol = sym
                name.ty = sym.ty
                acc = Access(
                    name, AccessKind.LOAD, self.fn.line, AccessRole.ENTRY_PARAM, idx
                )
                self._expect([acc])
                mem = MemRef(
                    addr=addr,
                    width=4,
                    is_store=False,
                    known_symbol=slot,
                    known_offset=0,
                    may_be_aliased=False,
                )
                insn = Insn(
                    Opcode.LOAD,
                    dst=reg,
                    mem=mem,
                    line=self.fn.line,
                    is_float=sym.ty.is_float,
                )
                exp = self._expected.pop(0)
                assert exp is acc
                self.emit(insn)
            elif sym.in_memory and not sym.ty.is_array:
                # Address-taken register parameter: spill to its home slot.
                storage = self._storage_name(sym)
                addr = new_reg(name=f"&{sym.name}")
                self.emit(Insn(Opcode.LA, dst=addr, symbol=storage, line=self.fn.line))
                mem = MemRef(
                    addr=addr,
                    width=self._width_of(sym.ty),
                    is_store=True,
                    known_symbol=storage,
                    known_offset=0,
                )
                self.emit(
                    Insn(
                        Opcode.STORE,
                        srcs=(reg,),
                        mem=mem,
                        line=self.fn.line,
                        is_float=sym.ty.is_float,
                    )
                )

    # -- statements --------------------------------------------------------------

    def _stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                self._stmt(s)
            return
        if isinstance(stmt, ast.DeclGroup):
            for d in stmt.decls:
                self._stmt(d)
            return
        if isinstance(stmt, ast.VarDecl):
            self._expect(walk_stmt_accesses(stmt))
            self._lower_vardecl(stmt)
            self._drain_check(f"decl of {stmt.name}")
            return
        if isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._expect(walk_rvalue(stmt.expr))
                self._rvalue(stmt.expr)
                self._drain_check(f"expression at line {stmt.line}")
            return
        if isinstance(stmt, ast.If):
            self._lower_if(stmt)
            return
        if isinstance(stmt, ast.While):
            self._lower_while(stmt)
            return
        if isinstance(stmt, ast.DoWhile):
            self._lower_dowhile(stmt)
            return
        if isinstance(stmt, ast.For):
            self._lower_for(stmt)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expect(walk_rvalue(stmt.value))
                val = self._rvalue(stmt.value)
                self._drain_check("return value")
                ret_float = self.fn.ret is not None and self.fn.ret.is_float
                val = self._coerce(val, ret_float, stmt.line)
                if self.out.ret_reg is None:
                    self.out.ret_reg = new_reg(is_float=ret_float, name="retval")
                    self.out.ret_is_float = ret_float
                self.emit(
                    Insn(
                        Opcode.MOVE,
                        dst=self.out.ret_reg,
                        srcs=(val,),
                        line=stmt.line,
                        is_float=ret_float,
                    )
                )
            self.emit(Insn(Opcode.RET, line=stmt.line))
            return
        if isinstance(stmt, ast.Break):
            if not self._loop_stack:
                raise LoweringError("break outside loop")
            self.emit(Insn(Opcode.J, label=self._loop_stack[-1].break_to, line=stmt.line))
            return
        if isinstance(stmt, ast.Continue):
            if not self._loop_stack:
                raise LoweringError("continue outside loop")
            self.emit(
                Insn(Opcode.J, label=self._loop_stack[-1].continue_to, line=stmt.line)
            )
            return
        raise LoweringError(f"cannot lower {type(stmt).__name__}")  # pragma: no cover

    def _lower_vardecl(self, stmt: ast.VarDecl) -> None:
        sym = stmt.symbol
        if not isinstance(sym, Symbol):
            return
        if stmt.init is None:
            if sym.in_memory and not sym.ty.is_array:
                self._storage_name(sym)  # reserve storage
            return
        val = self._rvalue(stmt.init)
        if sym.in_memory and not sym.ty.is_array:
            storage = self._storage_name(sym)
            addr = new_reg(name=f"&{sym.name}")
            self.emit(Insn(Opcode.LA, dst=addr, symbol=storage, line=stmt.line))
            mem = MemRef(
                addr=addr,
                width=self._width_of(sym.ty),
                is_store=True,
                known_symbol=storage,
                known_offset=0,
            )
            # The walker emitted a synthetic Name node for this store; match
            # by kind only (node identity differs between walker runs).
            if not self._expected:
                raise LoweringError("item-order contract: missing decl-store access")
            exp = self._expected.pop(0)
            if exp.kind is not AccessKind.STORE:
                raise LoweringError("item-order contract: decl store mismatch")
            val = self._coerce(val, sym.ty.is_float, stmt.line)
            self.emit(
                Insn(
                    Opcode.STORE,
                    srcs=(val,),
                    mem=mem,
                    line=stmt.line,
                    is_float=sym.ty.is_float,
                )
            )
        else:
            reg = self._value_reg(sym)
            val = self._coerce(val, sym.ty.is_float, stmt.line)
            self.emit(
                Insn(
                    Opcode.MOVE,
                    dst=reg,
                    srcs=(val,),
                    line=stmt.line,
                    is_float=sym.ty.is_float,
                )
            )

    def _lower_if(self, stmt: ast.If) -> None:
        assert stmt.cond is not None
        self._expect(walk_rvalue(stmt.cond))
        cond = self._rvalue(stmt.cond)
        self._drain_check("if condition")
        else_label = self._label("else")
        end_label = self._label("endif")
        self.emit(Insn(Opcode.BEQZ, srcs=(cond,), label=else_label, line=stmt.line))
        if stmt.then is not None:
            self._stmt(stmt.then)
        if stmt.otherwise is not None:
            self.emit(Insn(Opcode.J, label=end_label, line=stmt.line))
            self.emit(Insn(Opcode.LABEL, label=else_label, line=stmt.line))
            self._stmt(stmt.otherwise)
            self.emit(Insn(Opcode.LABEL, label=end_label, line=stmt.line))
        else:
            self.emit(Insn(Opcode.LABEL, label=else_label, line=stmt.line))

    def _lower_while(self, stmt: ast.While) -> None:
        top = self._label("wtop")
        exit_label = self._label("wend")
        self.emit(Insn(Opcode.LABEL, label=top, line=stmt.line))
        assert stmt.cond is not None
        self._expect(walk_rvalue(stmt.cond))
        cond = self._rvalue(stmt.cond)
        self._drain_check("while condition")
        self.emit(Insn(Opcode.BEQZ, srcs=(cond,), label=exit_label, line=stmt.line))
        self._loop_stack.append(_LoopLabels(break_to=exit_label, continue_to=top))
        if stmt.body is not None:
            self._stmt(stmt.body)
        self._loop_stack.pop()
        self.emit(Insn(Opcode.J, label=top, line=stmt.line))
        self.emit(Insn(Opcode.LABEL, label=exit_label, line=stmt.line))
        self.out.loops.append((top, top, exit_label))

    def _lower_dowhile(self, stmt: ast.DoWhile) -> None:
        top = self._label("dtop")
        cont = self._label("dcont")
        exit_label = self._label("dend")
        self.emit(Insn(Opcode.LABEL, label=top, line=stmt.line))
        self._loop_stack.append(_LoopLabels(break_to=exit_label, continue_to=cont))
        if stmt.body is not None:
            self._stmt(stmt.body)
        self._loop_stack.pop()
        self.emit(Insn(Opcode.LABEL, label=cont, line=stmt.line))
        assert stmt.cond is not None
        self._expect(walk_rvalue(stmt.cond))
        cond = self._rvalue(stmt.cond)
        self._drain_check("do-while condition")
        self.emit(Insn(Opcode.BNEZ, srcs=(cond,), label=top, line=stmt.line))
        self.emit(Insn(Opcode.LABEL, label=exit_label, line=stmt.line))
        self.out.loops.append((top, cont, exit_label))

    def _lower_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self._expect(walk_stmt_accesses(stmt.init))
            self._stmt_no_expect(stmt.init)
            self._drain_check("for init")
        top = self._label("ftop")
        cont = self._label("fcont")
        exit_label = self._label("fend")
        self.emit(Insn(Opcode.LABEL, label=top, line=stmt.line))
        if stmt.cond is not None:
            self._expect(walk_rvalue(stmt.cond))
            cond = self._rvalue(stmt.cond)
            self._drain_check("for condition")
            self.emit(Insn(Opcode.BEQZ, srcs=(cond,), label=exit_label, line=stmt.line))
        self._loop_stack.append(_LoopLabels(break_to=exit_label, continue_to=cont))
        if stmt.body is not None:
            self._stmt(stmt.body)
        self._loop_stack.pop()
        self.emit(Insn(Opcode.LABEL, label=cont, line=stmt.line))
        if stmt.step is not None:
            self._expect(walk_rvalue(stmt.step))
            self._rvalue(stmt.step)
            self._drain_check("for step")
        self.emit(Insn(Opcode.J, label=top, line=stmt.line))
        self.emit(Insn(Opcode.LABEL, label=exit_label, line=stmt.line))
        self.out.loops.append((top, cont, exit_label))

    def _stmt_no_expect(self, stmt: ast.Stmt) -> None:
        """Lower a statement whose accesses are already queued (for-init)."""
        if isinstance(stmt, ast.VarDecl):
            self._lower_vardecl(stmt)
            return
        if isinstance(stmt, ast.DeclGroup):
            for d in stmt.decls:
                self._lower_vardecl(d)
            return
        if isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._rvalue(stmt.expr)
            return
        raise LoweringError("unsupported for-init statement")

    # -- expressions ---------------------------------------------------------------

    def _coerce(self, reg: Reg, want_float: bool, line: int) -> Reg:
        if reg.is_float == want_float:
            return reg
        dst = new_reg(is_float=want_float)
        op = Opcode.CVT_IF if want_float else Opcode.CVT_FI
        self.emit(Insn(op, dst=dst, srcs=(reg,), line=line, is_float=want_float))
        return dst

    def _rvalue(self, e: ast.Expr) -> Reg:
        if isinstance(e, ast.IntLit):
            dst = new_reg()
            self.emit(Insn(Opcode.LI, dst=dst, imm=e.value, line=e.line))
            return dst
        if isinstance(e, ast.FloatLit):
            dst = new_reg(is_float=True)
            self.emit(Insn(Opcode.LI, dst=dst, imm=e.value, line=e.line, is_float=True))
            return dst
        if isinstance(e, ast.StringLit):
            dst = new_reg()
            self.emit(Insn(Opcode.LI, dst=dst, imm=e.value, line=e.line))
            return dst
        if isinstance(e, ast.Name):
            return self._rvalue_name(e)
        if isinstance(e, ast.Unary):
            return self._rvalue_unary(e)
        if isinstance(e, ast.Binary):
            return self._rvalue_binary(e)
        if isinstance(e, ast.Conditional):
            return self._rvalue_conditional(e)
        if isinstance(e, (ast.Index, ast.FieldAccess)):
            return self._rvalue_memref(e)
        if isinstance(e, ast.Call):
            return self._lower_call(e)
        if isinstance(e, ast.Assign):
            return self._lower_assign(e)
        if isinstance(e, ast.IncDec):
            return self._lower_incdec(e)
        raise LoweringError(f"cannot lower expression {type(e).__name__}")

    def _rvalue_name(self, e: ast.Name) -> Reg:
        sym = e.symbol
        assert isinstance(sym, Symbol)
        if isinstance(sym.ty, ArrayType) or isinstance(sym.ty, StructType):
            # Array/struct name decays to its address.
            storage = self._storage_name(sym)
            dst = new_reg(name=f"&{sym.name}")
            self.emit(Insn(Opcode.LA, dst=dst, symbol=storage, line=e.line))
            return dst
        if sym.in_memory:
            storage = self._storage_name(sym)
            addr = new_reg(name=f"&{sym.name}")
            self.emit(Insn(Opcode.LA, dst=addr, symbol=storage, line=e.line))
            dst = new_reg(is_float=sym.ty.is_float, name=sym.name)
            mem = MemRef(
                addr=addr,
                width=self._width_of(sym.ty),
                is_store=False,
                known_symbol=storage,
                known_offset=0,
                may_be_aliased=sym.address_taken or sym.storage is StorageClass.GLOBAL,
            )
            insn = Insn(
                Opcode.LOAD, dst=dst, mem=mem, line=e.line, is_float=sym.ty.is_float
            )
            return self._check_emit_mem(e, AccessKind.LOAD, insn).dst  # type: ignore[return-value]
        return self._value_reg(sym)

    def _rvalue_unary(self, e: ast.Unary) -> Reg:
        assert e.operand is not None
        if e.op is ast.UnaryOp.DEREF:
            addr = self._rvalue(e.operand)
            width = self._width_of(e.ty)
            is_float = e.ty is not None and e.ty.is_float
            dst = new_reg(is_float=is_float)
            mem = MemRef(addr=addr, width=width, is_store=False)
            insn = Insn(Opcode.LOAD, dst=dst, mem=mem, line=e.line, is_float=is_float)
            self._check_emit_mem(e, AccessKind.LOAD, insn)
            return dst
        if e.op is ast.UnaryOp.ADDR:
            return self._address(e.operand)
        val = self._rvalue(e.operand)
        if e.op is ast.UnaryOp.NEG:
            dst = new_reg(is_float=val.is_float)
            self.emit(Insn(Opcode.NEG, dst=dst, srcs=(val,), line=e.line, is_float=val.is_float))
            return dst
        if e.op is ast.UnaryOp.NOT:
            dst = new_reg()
            self.emit(Insn(Opcode.SEQ, dst=dst, srcs=(val, 0), line=e.line))
            return dst
        dst = new_reg()
        self.emit(Insn(Opcode.NOT, dst=dst, srcs=(val,), line=e.line))
        return dst

    def _rvalue_binary(self, e: ast.Binary) -> Reg:
        assert e.lhs is not None and e.rhs is not None
        if e.op in (ast.BinOp.AND, ast.BinOp.OR):
            return self._short_circuit(e)
        lhs = self._rvalue(e.lhs)
        rhs = self._rvalue(e.rhs)
        # Pointer arithmetic: scale the integer side by the pointee size.
        lty, rty = e.lhs.ty, e.rhs.ty
        if lty is not None and (lty.is_pointer or lty.is_array) and rty is not None and rty.is_integer:
            rhs = self._scale(rhs, self._pointee_size(lty), e.line)
        elif rty is not None and (rty.is_pointer or rty.is_array) and lty is not None and lty.is_integer:
            lhs = self._scale(lhs, self._pointee_size(rty), e.line)
        is_float = lhs.is_float or rhs.is_float
        if e.op in (ast.BinOp.GT, ast.BinOp.GE):
            # x > y  =>  y < x
            op = Opcode.SLT if e.op is ast.BinOp.GT else Opcode.SLE
            lhs, rhs = rhs, lhs
        else:
            op = _BINOP_CODE[e.op]
        if is_float and op in (Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.MOD):
            raise LoweringError(f"float operand to {op.value}")
        if is_float:
            lhs = self._coerce(lhs, True, e.line)
            rhs = self._coerce(rhs, True, e.line)
        result_float = is_float and op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV)
        dst = new_reg(is_float=result_float)
        self.emit(
            Insn(op, dst=dst, srcs=(lhs, rhs), line=e.line, is_float=is_float)
        )
        return dst

    def _pointee_size(self, ty: Type) -> int:
        if isinstance(ty, PointerType):
            return max(ty.pointee.size(), 1)
        if isinstance(ty, ArrayType):
            return max(ty.element.size(), 1)
        return 1

    def _scale(self, reg: Reg, factor: int, line: int) -> Reg:
        if factor == 1:
            return reg
        f = new_reg()
        self.emit(Insn(Opcode.LI, dst=f, imm=factor, line=line))
        dst = new_reg()
        self.emit(Insn(Opcode.MUL, dst=dst, srcs=(reg, f), line=line))
        return dst

    def _short_circuit(self, e: ast.Binary) -> Reg:
        assert e.lhs is not None and e.rhs is not None
        dst = new_reg(name="sc")
        end = self._label("sc")
        lhs = self._rvalue(e.lhs)
        norm = new_reg()
        self.emit(Insn(Opcode.SNE, dst=norm, srcs=(lhs, 0), line=e.line))
        self.emit(Insn(Opcode.MOVE, dst=dst, srcs=(norm,), line=e.line))
        if e.op is ast.BinOp.AND:
            self.emit(Insn(Opcode.BEQZ, srcs=(norm,), label=end, line=e.line))
        else:
            self.emit(Insn(Opcode.BNEZ, srcs=(norm,), label=end, line=e.line))
        rhs = self._rvalue(e.rhs)
        norm2 = new_reg()
        self.emit(Insn(Opcode.SNE, dst=norm2, srcs=(rhs, 0), line=e.line))
        self.emit(Insn(Opcode.MOVE, dst=dst, srcs=(norm2,), line=e.line))
        self.emit(Insn(Opcode.LABEL, label=end, line=e.line))
        return dst

    def _rvalue_conditional(self, e: ast.Conditional) -> Reg:
        assert e.cond and e.then and e.otherwise
        cond = self._rvalue(e.cond)
        is_float = e.ty is not None and e.ty.is_float
        dst = new_reg(is_float=is_float, name="sel")
        else_l = self._label("celse")
        end_l = self._label("cend")
        self.emit(Insn(Opcode.BEQZ, srcs=(cond,), label=else_l, line=e.line))
        t = self._coerce(self._rvalue(e.then), is_float, e.line)
        self.emit(Insn(Opcode.MOVE, dst=dst, srcs=(t,), line=e.line, is_float=is_float))
        self.emit(Insn(Opcode.J, label=end_l, line=e.line))
        self.emit(Insn(Opcode.LABEL, label=else_l, line=e.line))
        f = self._coerce(self._rvalue(e.otherwise), is_float, e.line)
        self.emit(Insn(Opcode.MOVE, dst=dst, srcs=(f,), line=e.line, is_float=is_float))
        self.emit(Insn(Opcode.LABEL, label=end_l, line=e.line))
        return dst

    # -- memory access lowering -------------------------------------------------------

    def _address(self, e: ast.Expr) -> Reg:
        """Compute the address of lvalue ``e`` into a register."""
        if isinstance(e, ast.Name):
            sym = e.symbol
            assert isinstance(sym, Symbol)
            storage = self._storage_name(sym)
            dst = new_reg(name=f"&{sym.name}")
            self.emit(Insn(Opcode.LA, dst=dst, symbol=storage, line=e.line))
            return dst
        if isinstance(e, ast.Index):
            assert e.base is not None and e.index is not None
            bty = e.base.ty
            if bty is not None and bty.is_array:
                base = self._address(e.base)
            else:
                base = self._rvalue(e.base)
            idx = self._rvalue(e.index)
            stride = max(e.ty.size(), 1) if e.ty is not None else 4
            scaled = self._scale(idx, stride, e.line)
            dst = new_reg(name="addr")
            self.emit(Insn(Opcode.ADD, dst=dst, srcs=(base, scaled), line=e.line))
            return dst
        if isinstance(e, ast.FieldAccess):
            assert e.base is not None
            if e.arrow:
                base = self._rvalue(e.base)
                bty = e.base.ty
                st = bty.pointee if isinstance(bty, PointerType) else None
            else:
                base = self._address(e.base)
                st = e.base.ty
            offset = 0
            if isinstance(st, StructType):
                offset = st.field_offset(e.fieldname)
            if offset == 0:
                return base
            off = new_reg()
            self.emit(Insn(Opcode.LI, dst=off, imm=offset, line=e.line))
            dst = new_reg(name="addr")
            self.emit(Insn(Opcode.ADD, dst=dst, srcs=(base, off), line=e.line))
            return dst
        if isinstance(e, ast.Unary) and e.op is ast.UnaryOp.DEREF:
            assert e.operand is not None
            return self._rvalue(e.operand)
        raise LoweringError(f"cannot take address of {type(e).__name__}")

    def _memref_static_info(self, e: ast.Expr) -> tuple[Optional[str], Optional[str]]:
        """(known_symbol, base_symbol) visible to the back-end for lvalue ``e``.

        Direct scalar names keep full knowledge; array accesses keep at most
        the base symbol; pointer dereferences keep nothing — reproducing the
        information GCC 2.7 retains in its RTL address expressions.
        """
        if isinstance(e, ast.Name) and isinstance(e.symbol, Symbol):
            return self._storage_name(e.symbol), None
        if isinstance(e, ast.Index):
            base: ast.Expr | None = e
            while isinstance(base, ast.Index):
                base = base.base
            if (
                isinstance(base, ast.Name)
                and isinstance(base.symbol, Symbol)
                and base.symbol.ty.is_array
            ):
                return None, self._storage_name(base.symbol)
            return None, None
        return None, None

    def _rvalue_memref(self, e: ast.Expr) -> Reg:
        """Load the value of an Index/FieldAccess expression."""
        if e.ty is not None and e.ty.is_array:
            # Partial indexing of a multi-dim array yields an address.
            return self._address(e)
        addr = self._address(e)
        known, base_sym = self._memref_static_info(e)
        is_float = e.ty is not None and e.ty.is_float
        dst = new_reg(is_float=is_float)
        mem = MemRef(
            addr=addr,
            width=self._width_of(e.ty),
            is_store=False,
            known_symbol=known,
            known_offset=0 if known is not None else None,
            base_symbol=base_sym,
        )
        insn = Insn(Opcode.LOAD, dst=dst, mem=mem, line=e.line, is_float=is_float)
        self._check_emit_mem(e, AccessKind.LOAD, insn)
        return dst

    def _store_to(self, target: ast.Expr, addr: Reg, value: Reg) -> None:
        known, base_sym = self._memref_static_info(target)
        is_float = target.ty is not None and target.ty.is_float
        value = self._coerce(value, is_float, target.line)
        aliased = True
        if isinstance(target, ast.Name) and isinstance(target.symbol, Symbol):
            sym = target.symbol
            aliased = sym.address_taken or sym.storage is StorageClass.GLOBAL
        mem = MemRef(
            addr=addr,
            width=self._width_of(target.ty),
            is_store=True,
            known_symbol=known,
            known_offset=0 if known is not None else None,
            base_symbol=base_sym,
            may_be_aliased=aliased,
        )
        insn = Insn(
            Opcode.STORE, srcs=(value,), mem=mem, line=target.line, is_float=is_float
        )
        self._check_emit_mem(target, AccessKind.STORE, insn)

    def _load_lvalue(self, target: ast.Expr, addr: Reg) -> Reg:
        known, base_sym = self._memref_static_info(target)
        is_float = target.ty is not None and target.ty.is_float
        dst = new_reg(is_float=is_float)
        mem = MemRef(
            addr=addr,
            width=self._width_of(target.ty),
            is_store=False,
            known_symbol=known,
            known_offset=0 if known is not None else None,
            base_symbol=base_sym,
        )
        insn = Insn(Opcode.LOAD, dst=dst, mem=mem, line=target.line, is_float=is_float)
        self._check_emit_mem(target, AccessKind.LOAD, insn)
        return dst

    def _target_in_memory(self, target: ast.Expr) -> bool:
        if isinstance(target, ast.Name):
            sym = target.symbol
            return isinstance(sym, Symbol) and sym.in_memory and not sym.ty.is_array
        return True  # Index / FieldAccess / deref always hit memory

    def _lower_assign(self, e: ast.Assign) -> Reg:
        assert e.target is not None and e.value is not None
        value = self._rvalue(e.value)
        target = e.target
        if not self._target_in_memory(target):
            # Register-promoted scalar.
            assert isinstance(target, ast.Name) and isinstance(target.symbol, Symbol)
            reg = self._value_reg(target.symbol)
            if e.op is not ast.AssignOp.ASSIGN:
                op = _ASSIGN_BINOP[e.op]
                is_float = reg.is_float
                value = self._coerce(value, is_float, e.line)
                tmp = new_reg(is_float=is_float)
                self.emit(
                    Insn(op, dst=tmp, srcs=(reg, value), line=e.line, is_float=is_float)
                )
                value = tmp
            else:
                value = self._coerce(value, reg.is_float, e.line)
            self.emit(
                Insn(
                    Opcode.MOVE,
                    dst=reg,
                    srcs=(value,),
                    line=e.line,
                    is_float=reg.is_float,
                )
            )
            return reg
        addr = self._address(target)
        if e.op is not ast.AssignOp.ASSIGN:
            old = self._load_lvalue(target, addr)
            op = _ASSIGN_BINOP[e.op]
            is_float = old.is_float
            value = self._coerce(value, is_float, e.line)
            tmp = new_reg(is_float=is_float)
            self.emit(Insn(op, dst=tmp, srcs=(old, value), line=e.line, is_float=is_float))
            value = tmp
        self._store_to(target, addr, value)
        return value

    def _lower_incdec(self, e: ast.IncDec) -> Reg:
        assert e.target is not None
        target = e.target
        step = 1
        if isinstance(target.ty, PointerType):
            step = max(target.ty.pointee.size(), 1)
        if not self._target_in_memory(target):
            assert isinstance(target, ast.Name) and isinstance(target.symbol, Symbol)
            reg = self._value_reg(target.symbol)
            old = new_reg(is_float=reg.is_float)
            self.emit(Insn(Opcode.MOVE, dst=old, srcs=(reg,), line=e.line, is_float=reg.is_float))
            one = new_reg()
            self.emit(Insn(Opcode.LI, dst=one, imm=step, line=e.line))
            op = Opcode.ADD if e.increment else Opcode.SUB
            self.emit(Insn(op, dst=reg, srcs=(reg, one), line=e.line, is_float=reg.is_float))
            return reg if e.prefix else old
        addr = self._address(target)
        old = self._load_lvalue(target, addr)
        one = new_reg()
        self.emit(Insn(Opcode.LI, dst=one, imm=step, line=e.line))
        op = Opcode.ADD if e.increment else Opcode.SUB
        newval = new_reg(is_float=old.is_float)
        self.emit(Insn(op, dst=newval, srcs=(old, one), line=e.line, is_float=old.is_float))
        self._store_to(target, addr, newval)
        return newval if e.prefix else old

    # -- calls -------------------------------------------------------------------------

    def _lower_call(self, e: ast.Call) -> Reg:
        arg_regs: list[Reg] = []
        for idx, arg in enumerate(e.args):
            val = self._rvalue(arg)
            if idx >= NUM_ARG_REGS:
                slot = arg_slot_symbol(idx).name
                addr = new_reg(name=f"&{slot}")
                self.emit(Insn(Opcode.LA, dst=addr, symbol=slot, line=e.line))
                mem = MemRef(
                    addr=addr,
                    width=4,
                    is_store=True,
                    known_symbol=slot,
                    known_offset=0,
                    may_be_aliased=False,
                )
                insn = Insn(
                    Opcode.STORE, srcs=(val,), mem=mem, line=e.line, is_float=val.is_float
                )
                self._check_emit_mem(e, AccessKind.STORE, insn)
            else:
                arg_regs.append(val)
        fsym = self.table_lookup(e.callee)
        ret_float = fsym is not None and fsym.ty.ret.is_float
        dst = new_reg(is_float=ret_float, name="ret")
        insn = Insn(
            Opcode.CALL,
            dst=dst,
            srcs=tuple(arg_regs),
            callee=e.callee,
            line=e.line,
            is_float=ret_float,
        )
        self._check_emit_call(e, insn)
        return dst

    def table_lookup(self, name: str):
        return self.parent.table.lookup_function(name)

    def _check_emit_call(self, node: ast.Call, insn: Insn) -> Insn:
        if not self._expected:
            raise LoweringError("item-order contract: unexpected call")
        exp = self._expected.pop(0)
        if exp.node is not node or exp.kind is not AccessKind.CALL:
            raise LoweringError(
                f"item-order contract: expected {exp.kind.value}, emitting call "
                f"to {node.callee} at line {insn.line}"
            )
        return self.emit(insn)


def lower_program(
    program: ast.Program,
    table: SymbolTable,
    cached: Optional[dict[str, RTLFunction]] = None,
) -> RTLProgram:
    """Lower a checked program to RTL.

    ``cached`` maps function names to pre-lowered bodies (from the
    per-function artifact cache); those functions are spliced instead of
    re-lowered, with their frame layout replayed in program order so the
    resulting address map matches a from-scratch compile.
    """
    from ..obs import metrics, trace

    with trace.span("backend.lowering", file=program.filename):
        rtl = ProgramLowering(program, table, cached=cached).run()
    if metrics.is_enabled():
        metrics.add(
            "lowering.insns", sum(len(f.insns) for f in rtl.functions.values())
        )
        metrics.add("lowering.functions", len(rtl.functions))
    return rtl
