"""Functional RTL executor.

Interprets lowered (and possibly rescheduled) RTL, producing:

* the program's observable results (return value, output, final memory) —
  used by tests to prove that HLI-guided scheduling preserves semantics;
* a dynamic instruction trace consumed by the timing models
  (:mod:`repro.machine.pipeline`, :mod:`repro.machine.superscalar`).

The machine is 32-bit MIPS-like: byte-addressed memory, C-style
truncating integer division, wrap-around 32-bit integer arithmetic.
External functions (printf, getchar, sqrt, malloc, ...) are serviced by
built-in handlers so SPEC-shaped workloads run without an OS.

Each function is decoded once per run, on its first call, into a flat
table (:func:`_decode`): branch targets become indices, registers and
immediates become slots of a list frame, the ALU operation is picked
per opcode and ``is_float``, and every instruction without a memory
address gets one :class:`TraceEvent` that all of its executions share.

The unit of execution is the straight-line run: the table entries from
a branch target or call return up to and including the next J, BEQZ,
BNEZ, CALL or RET.  Runs are split off the table lazily, by start
index (:func:`_split`); each executes its body in one inner loop, takes
one step-limit check, and is recorded in the :class:`RunTrace` once,
with one address per load or store.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from ..backend.rtl import Insn, Opcode, Reg, RTLFunction, RTLProgram
from ..obs import metrics, trace


class ExecutionError(Exception):
    """Raised on runtime faults (bad opcode, step-limit, missing function,
    branch to an undefined label)."""


class _ExitProgram(Exception):
    def __init__(self, code: int) -> None:
        self.code = code


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One executed instruction, with its resolved memory address (if any).

    Events are immutable because traces share them: every execution of
    an instruction without a memory address reads as the same event
    object, and only an executed load or store gets its own.
    """

    insn: Insn
    addr: Optional[int] = None


class Run:
    """One straight-line run as a trace records it.

    ``insns`` are the instructions it executed, in order, labels and
    NOPs left out.  ``events[i]`` is the event all executions of
    ``insns[i]`` share, or None for a load or store, whose executions
    each take the next address of :attr:`RunTrace.addrs`.  Runs are
    static: every execution of one appends the same object, so a
    consumer can key per-run facts by identity.
    """

    __slots__ = ("insns", "events")

    def __init__(self, insns: tuple[Insn, ...], events: tuple[Optional[TraceEvent], ...]):
        self.insns = insns
        self.events = events


class RunTrace:
    """A dynamic trace: the executed runs, in order, and the address of
    every executed load and store, in order.

    It reads as the sequence of :class:`TraceEvent` it stands for:
    ``len`` is the number of executed instructions, and iteration and
    indexing expand the runs into events, sharing one event per
    instruction without a memory address and building a fresh one per
    memory access.  A trace equals the list (or trace) of the same
    events.
    """

    __slots__ = ("runs", "addrs")

    def __init__(self, runs: Optional[list[Run]] = None, addrs: Optional[list] = None):
        self.runs: list[Run] = [] if runs is None else runs
        self.addrs: list = [] if addrs is None else addrs

    @classmethod
    def of(cls, events: Iterable[TraceEvent]) -> RunTrace:
        """``events`` as a trace of one-instruction runs (a trace is
        returned as it is).  Loads and stores keep their addresses; an
        address on any other instruction is dropped, as the executor
        never records one."""
        if isinstance(events, RunTrace):
            return events
        runs: list[Run] = []
        addrs: list = []
        single: dict[int, Run] = {}
        for ev in events:
            insn = ev.insn
            run = single.get(id(insn))
            if run is None:
                memory = insn.op is Opcode.LOAD or insn.op is Opcode.STORE
                shared = None if memory else TraceEvent(insn)
                run = single[id(insn)] = Run((insn,), (shared,))
            runs.append(run)
            if run.events[0] is None:
                addrs.append(ev.addr)
        return cls(runs, addrs)

    def __len__(self) -> int:
        return sum([len(run.insns) for run in self.runs])

    def __iter__(self) -> Iterator[TraceEvent]:
        addrs = iter(self.addrs)
        for run in self.runs:
            for insn, ev in zip(run.insns, run.events):
                yield ev if ev is not None else TraceEvent(insn, next(addrs))

    def __getitem__(self, index: int) -> TraceEvent:
        if index < 0:
            index += len(self)
        taken = 0  # addresses of the runs before the one holding ``index``
        for run in self.runs:
            if 0 <= index < len(run.insns):
                ev = run.events[index]
                if ev is None:
                    ev = TraceEvent(
                        run.insns[index], self.addrs[taken + run.events[:index].count(None)]
                    )
                return ev
            index -= len(run.insns)
            taken += run.events.count(None)
        raise IndexError("trace index out of range")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RunTrace, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RunTrace({len(self.runs)} runs, {len(self)} events)"


@dataclass
class ExecResult:
    """Observable outcome of one program run."""

    ret: object = None
    output: list[str] = field(default_factory=list)
    steps: int = 0
    trace: RunTrace = field(default_factory=RunTrace)
    memory: dict[int, object] = field(default_factory=dict)


def _s32(v: int) -> int:
    """Wrap to signed 32-bit."""
    v &= 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


def _cdiv(a: int, b: int) -> int:
    """C-style truncating division."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _cmod(a: int, b: int) -> int:
    return a - _cdiv(a, b) * b


#: Two-operand integer operations (and the comparisons, which ignore
#: ``is_float``).  Integer division by zero raises ``ZeroDivisionError``;
#: :func:`_decode` wraps DIV and MOD in :func:`_trap_zero`.
_BINARY = {
    Opcode.ADD: lambda a, b: _s32(int(a + b)),
    Opcode.SUB: lambda a, b: _s32(int(a - b)),
    Opcode.MUL: lambda a, b: _s32(int(a * b)),
    Opcode.DIV: lambda a, b: _s32(_cdiv(int(a), int(b))),
    Opcode.MOD: lambda a, b: _s32(_cmod(int(a), int(b))),
    Opcode.AND: lambda a, b: _s32(int(a) & int(b)),
    Opcode.OR: lambda a, b: _s32(int(a) | int(b)),
    Opcode.XOR: lambda a, b: _s32(int(a) ^ int(b)),
    Opcode.SHL: lambda a, b: _s32(int(a) << (int(b) & 31)),
    Opcode.SHR: lambda a, b: _s32(int(a) >> (int(b) & 31)),
    Opcode.SLT: lambda a, b: 1 if a < b else 0,
    Opcode.SLE: lambda a, b: 1 if a <= b else 0,
    Opcode.SEQ: lambda a, b: 1 if a == b else 0,
    Opcode.SNE: lambda a, b: 1 if a != b else 0,
}
_FLOAT_BINARY = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul,
    Opcode.DIV: lambda a, b: a / b if b != 0 else math.inf,
}
_UNARY = {
    Opcode.NEG: lambda a: _s32(-int(a)),
    Opcode.NOT: lambda a: _s32(~int(a)),
    Opcode.CVT_IF: float,
    Opcode.CVT_FI: lambda a: _s32(int(a)),
}
_FLOAT_UNARY = {Opcode.NEG: operator.neg}


def _trap_zero(fun, what: str, line: int):
    """``fun``, raising an :class:`ExecutionError` that names ``line`` on
    a zero divisor."""

    def checked(a, b):
        try:
            return fun(a, b)
        except ZeroDivisionError:
            raise ExecutionError(f"integer {what} by zero at line {line}") from None

    return checked


# Kinds of decoded instruction.  Every table entry is
# ``(kind, event, a, b, c, d)``; the operand meaning per kind is given
# in :func:`_decode`.  Kinds up to ``_UNARY_OP`` make up a run's body;
# the rest end a run, and the trace records those before ``_FAULT``.
# ``_END`` and ``_NO_LABEL`` are not instructions: they sit after the
# last one and take no step.
(_BINARY_OP, _SET, _SKIP, _MOVE, _LOAD, _STORE, _UNARY_OP,
 _BEQZ, _BNEZ, _J, _CALL, _RET, _FAULT, _END, _NO_LABEL) = range(15)


@dataclass(frozen=True, slots=True)
class _Code:
    """One function decoded for execution."""

    name: str
    table: list[tuple]
    #: initial register frame: 0 per register slot, the value per immediate
    frame: list[object]
    param_slots: list[int]
    #: start index -> the run starting there (see :func:`_split`), or None
    #: until a run first starts there
    runs: list[Optional[tuple]]


def _decode(fn: RTLFunction, program: RTLProgram) -> _Code:
    """Translate ``fn`` into a flat instruction table.

    Entries by kind (``ev`` is the instruction's shared event; loads and
    stores carry the instruction instead, since each execution records
    its own address):

    * ``_SET``: ``a`` slot := constant ``b`` (LI, LA, MOVE of an immediate)
    * ``_MOVE``: ``a`` := slot ``b``
    * ``_BINARY_OP`` / ``_UNARY_OP``: ``a`` := ``b(slot c[, slot d])``
    * ``_LOAD``: ``a`` := memory at slot ``b``, default ``c``
    * ``_STORE``: memory at slot ``b`` := slot ``a``
    * ``_J``: jump to index ``a``; ``_BEQZ`` / ``_BNEZ``: test slot ``a``,
      jump to index ``b``
    * ``_CALL``: ``a`` := call ``b`` on slots ``c`` (``a`` may be None)
    * ``_RET``: return slot ``a`` (0 when None)
    * ``_FAULT`` / ``_NO_LABEL``: raise with message ``a``
    """
    frame: list[object] = []
    reg_slots: dict[int, int] = {}

    def slot(operand) -> int:
        if isinstance(operand, Reg):
            s = reg_slots.get(operand.rid)
            if s is None:
                s = reg_slots[operand.rid] = len(frame)
                frame.append(0)
            return s
        frame.append(operand)
        return len(frame) - 1

    labels = fn.labels()
    n = len(fn.insns)
    #: undefined branch label -> index of its _NO_LABEL entry
    missing: dict[str, int] = {}

    def target(label: str) -> int:
        idx = labels.get(label)
        if idx is None:
            idx = missing.setdefault(label, n + 1 + len(missing))
        return idx

    table: list[tuple] = []
    for insn in fn.insns:
        op = insn.op
        ev = TraceEvent(insn)
        if op is Opcode.LABEL or op is Opcode.NOP:
            entry: tuple = (_SKIP, None, None, None, None, None)
        elif op is Opcode.LI:
            entry = (_SET, ev, slot(insn.dst), insn.imm, None, None)
        elif op is Opcode.LA:
            layout = program.globals_layout.get(insn.symbol)
            if layout is None:
                entry = (_FAULT, ev, f"unknown symbol '{insn.symbol}'", None, None, None)
            else:
                entry = (_SET, ev, slot(insn.dst), layout[0], None, None)
        elif op is Opcode.MOVE:
            src = insn.srcs[0]
            if isinstance(src, Reg):
                entry = (_MOVE, ev, slot(insn.dst), slot(src), None, None)
            else:
                entry = (_SET, ev, slot(insn.dst), src, None, None)
        elif op is Opcode.LOAD:
            default = 0.0 if insn.is_float else 0
            entry = (_LOAD, insn, slot(insn.dst), slot(insn.mem.addr), default, None)
        elif op is Opcode.STORE:
            entry = (_STORE, insn, slot(insn.srcs[0]), slot(insn.mem.addr), None, None)
        elif op is Opcode.J:
            entry = (_J, ev, target(insn.label), None, None, None)
        elif op is Opcode.BEQZ or op is Opcode.BNEZ:
            kind = _BEQZ if op is Opcode.BEQZ else _BNEZ
            entry = (kind, ev, slot(insn.srcs[0]), target(insn.label), None, None)
        elif op is Opcode.CALL:
            dst = slot(insn.dst) if insn.dst is not None else None
            args = tuple(slot(s) for s in insn.srcs)
            entry = (_CALL, ev, dst, insn.callee, args, None)
        elif op is Opcode.RET:
            ret = slot(fn.ret_reg) if fn.ret_reg is not None else None
            entry = (_RET, ev, ret, None, None, None)
        elif op in _UNARY:
            fun = (_FLOAT_UNARY if insn.is_float else _UNARY).get(op, _UNARY[op])
            entry = (_UNARY_OP, ev, slot(insn.dst), fun, slot(insn.srcs[0]), None)
        elif op in _BINARY:
            fun = (_FLOAT_BINARY if insn.is_float else _BINARY).get(op, _BINARY[op])
            if fun is _BINARY[op] and (op is Opcode.DIV or op is Opcode.MOD):
                what = "division" if op is Opcode.DIV else "modulo"
                fun = _trap_zero(fun, what, insn.line)
            b = insn.srcs[1] if len(insn.srcs) > 1 else None
            entry = (_BINARY_OP, ev, slot(insn.dst), fun, slot(insn.srcs[0]), slot(b))
        else:  # pragma: no cover - every Opcode is handled above
            entry = (_FAULT, ev, f"unhandled opcode {op}", None, None, None)
        table.append(entry)
    table.append((_END, None, None, None, None, None))
    for label in missing:
        message = f"branch to undefined label '{label}' in {fn.name}"
        table.append((_NO_LABEL, None, message, None, None, None))
    params = [slot(reg) for reg in fn.param_regs]
    return _Code(fn.name, table, frame, params, [None] * len(table))


def _split(code: _Code, start: int, limit: Optional[int] = None) -> tuple:
    """The run of ``code`` starting at table index ``start``, as
    ``(body, steps, kind, a, b, c, next, run)``.

    ``body`` holds the entries before the one that ends the run, as
    ``(kind, a, b, c, d)``, labels and NOPs left out.  ``steps`` counts
    every entry of the run, labels too, but not an ``_END`` or
    ``_NO_LABEL`` ending.  ``kind``, ``a``, ``b`` and ``c`` are the
    ending entry's, ``next`` is the index after it, and ``run`` is the
    :class:`Run` the trace records.  With ``limit``, the run is cut
    after its first ``limit`` steps and ends in a step-limit fault.
    """
    table = code.table
    body: list[tuple] = []
    insns: list[Insn] = []
    events: list[Optional[TraceEvent]] = []
    pc = start
    while True:
        kind, ev, a, b, c, d = table[pc]
        if pc - start == limit:
            kind, ev, a = _FAULT, None, f"step limit exceeded in {code.name}"
        if kind > _UNARY_OP:
            break
        if kind is not _SKIP:
            body.append((kind, a, b, c, d))
            if kind is _LOAD or kind is _STORE:
                insns.append(ev)
                events.append(None)
            else:
                insns.append(ev.insn)
                events.append(ev)
        pc += 1
    if kind < _FAULT:
        insns.append(ev.insn)
        events.append(ev)
    steps = pc - start + (kind < _END)
    run = Run(tuple(insns), tuple(events))
    return tuple(body), steps, kind, a, b, c, pc + 1, run


class Executor:
    """Interpret an RTL program."""

    def __init__(
        self,
        program: RTLProgram,
        input_text: str = "",
        max_steps: int = 50_000_000,
        collect_trace: bool = True,
    ) -> None:
        self.program = program
        self.memory: dict[int, object] = dict(program.init_data)
        self.input = input_text
        self.input_pos = 0
        self.max_steps = max_steps
        self.collect_trace = collect_trace
        self.steps = 0
        self.trace = RunTrace()
        self.output: list[str] = []
        self._heap_next = 0x4000000
        self._rand_state = 12345
        #: function name -> its decoded table, filled on first call
        self._code: dict[str, _Code] = {}

    # -- public API --------------------------------------------------------

    def run(self, entry: str = "main", args: tuple = ()) -> ExecResult:
        """Execute ``entry`` with integer/float arguments."""
        ret = None
        with trace.span("machine.execute", entry=entry):
            try:
                ret = self._call(entry, tuple(args))
            except _ExitProgram as e:
                ret = e.code
        if metrics.is_enabled():
            metrics.add("machine.dynamic_insns", len(self.trace))
            metrics.add("machine.steps", self.steps)
        return ExecResult(
            ret=ret,
            output=self.output,
            steps=self.steps,
            trace=self.trace,
            memory=self.memory,
        )

    # -- function invocation --------------------------------------------------

    def _call(self, name: str, args: tuple) -> object:
        handler = _EXTERNALS.get(name)
        if handler is not None:
            return handler(self, args)
        code = self._code.get(name)
        if code is None:
            fn = self.program.functions.get(name)
            if fn is None:
                raise ExecutionError(f"call to unknown function '{name}'")
            code = self._code[name] = _decode(fn, self.program)
        return self._run(code, args)

    def _run(self, code: _Code, args: tuple) -> object:
        regs = code.frame.copy()
        for s, val in zip(code.param_slots, args):
            regs[s] = val
        runs = code.runs
        mem = self.memory
        collect = self.collect_trace
        record = self.trace.runs.append
        # without a trace, addresses go to a queue that keeps none
        push = self.trace.addrs.append if collect else deque(maxlen=0).append
        limit = self.max_steps
        steps = self.steps
        pc = 0
        while True:
            entry = runs[pc]
            if entry is None:
                entry = runs[pc] = _split(code, pc)
            if steps + entry[1] > limit and entry[1]:
                # step exactly up to the limit and fault on the next step;
                # a run of no steps (an _END or _NO_LABEL) never does
                entry = _split(code, pc, max(limit - steps, 0))
            body, n, kind, a, b, c, nxt, run = entry
            steps += n
            for op, w, x, y, z in body:
                if op is _BINARY_OP:
                    regs[w] = x(regs[y], regs[z])
                elif op is _SET:
                    regs[w] = x
                elif op is _MOVE:
                    regs[w] = regs[x]
                elif op is _LOAD:
                    addr = regs[x]
                    regs[w] = mem.get(addr, y)
                    push(addr)
                elif op is _STORE:
                    addr = regs[x]
                    mem[addr] = regs[w]
                    push(addr)
                else:  # _UNARY_OP
                    regs[w] = x(regs[y])
            if collect:
                record(run)
            if kind is _BEQZ:
                pc = b if regs[a] == 0 else nxt
            elif kind is _J:
                pc = a
            elif kind is _CALL:
                self.steps = steps
                result = self._call(b, tuple([regs[s] for s in c]))
                steps = self.steps
                if a is not None:
                    regs[a] = result
                pc = nxt
            elif kind is _RET:
                self.steps = steps
                return regs[a] if a is not None else 0
            elif kind is _BNEZ:
                pc = b if regs[a] != 0 else nxt
            elif kind is _END:
                self.steps = steps
                return 0
            else:  # _FAULT, _NO_LABEL
                self.steps = steps
                raise ExecutionError(a)

    # -- externals ----------------------------------------------------------------

    def _getchar(self) -> int:
        if self.input_pos >= len(self.input):
            return -1
        c = ord(self.input[self.input_pos])
        self.input_pos += 1
        return c

    def _malloc(self, size: int) -> int:
        addr = self._heap_next
        self._heap_next += max(8, (int(size) + 7) // 8 * 8)
        return addr

    def _rand(self) -> int:
        self._rand_state = (self._rand_state * 1103515245 + 12345) & 0x7FFFFFFF
        return self._rand_state


def _ext_printf(ex: Executor, args: tuple) -> int:
    fmt = args[0] if args else ""
    try:
        rendered = str(fmt) % tuple(args[1:]) if args[1:] else str(fmt)
    except (TypeError, ValueError):
        rendered = " ".join(str(a) for a in args)
    ex.output.append(rendered)
    return len(rendered)


_EXTERNALS = {
    "printf": _ext_printf,
    "putchar": lambda ex, a: (ex.output.append(chr(int(a[0]) & 0xFF)), int(a[0]))[1],
    "getchar": lambda ex, a: ex._getchar(),
    "exit": lambda ex, a: (_ for _ in ()).throw(_ExitProgram(int(a[0]) if a else 0)),
    "malloc": lambda ex, a: ex._malloc(int(a[0])),
    "free": lambda ex, a: 0,
    "rand": lambda ex, a: ex._rand(),
    "abs": lambda ex, a: abs(int(a[0])),
    "sqrt": lambda ex, a: math.sqrt(abs(float(a[0]))),
    "fabs": lambda ex, a: abs(float(a[0])),
    "sin": lambda ex, a: math.sin(float(a[0])),
    "cos": lambda ex, a: math.cos(float(a[0])),
    "exp": lambda ex, a: math.exp(min(float(a[0]), 700.0)),
    "log": lambda ex, a: math.log(abs(float(a[0])) + 1e-300),
    "pow": lambda ex, a: math.pow(float(a[0]), float(a[1])),
}


def execute(
    program: RTLProgram,
    entry: str = "main",
    args: tuple = (),
    input_text: str = "",
    collect_trace: bool = True,
    max_steps: int = 50_000_000,
) -> ExecResult:
    """Run ``program`` from ``entry`` and return the observable result."""
    ex = Executor(
        program, input_text=input_text, max_steps=max_steps, collect_trace=collect_trace
    )
    return ex.run(entry, args)
