"""RTL-like low-level IR for the back-end compiler.

Mirrors the aspects of GCC RTL the paper relies on:

* a linear *chain* of instructions per function, each annotated with the
  source line it came from (the line numbers are the join key between HLI
  items and memory references, Section 2.1);
* explicit memory references: every ``LOAD``/``STORE`` carries a
  :class:`MemRef`;
* pseudo-registers: local scalars live in an unbounded virtual register
  file, exactly the GCC behaviour ITEMGEN assumes (Section 3.1.1).

The IR deliberately models GCC 2.7's *weak* memory disambiguation: a
memory reference only remembers its base symbol when the address is a
direct ``symbol + constant`` — array elements and pointer dereferences go
through an address register and lose the base (see
:class:`~repro.backend.deps.LocalDependenceTest`).
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Iterator, Optional


class Opcode(enum.Enum):
    # data movement
    LI = "li"  # load immediate
    MOVE = "move"
    LA = "la"  # load address of a symbol (+ constant offset)
    LOAD = "load"
    STORE = "store"
    # integer arithmetic / logic
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    NEG = "neg"
    NOT = "not"  # bitwise complement
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    # comparisons (produce 0/1)
    SLT = "slt"
    SLE = "sle"
    SEQ = "seq"
    SNE = "sne"
    # conversions
    CVT_IF = "cvt.i.f"  # int -> float
    CVT_FI = "cvt.f.i"  # float -> int
    # control
    LABEL = "label"
    J = "j"
    BEQZ = "beqz"
    BNEZ = "bnez"
    CALL = "call"
    RET = "ret"
    NOP = "nop"


#: Opcodes that terminate a basic block.
BRANCH_OPS = {Opcode.J, Opcode.BEQZ, Opcode.BNEZ, Opcode.RET}

#: Opcodes with no register result.
NO_RESULT_OPS = {
    Opcode.STORE,
    Opcode.LABEL,
    Opcode.J,
    Opcode.BEQZ,
    Opcode.BNEZ,
    Opcode.RET,
    Opcode.NOP,
}

class _IdAllocator:
    """Monotonic id source, safe under threads *and* reservation.

    ``itertools.count`` hands out ids atomically, but :func:`reserve_ids`
    used to *replace* the counter object — a concurrent ``next()`` on the
    old counter could then re-issue an id the replacement also covers.
    Threads sharing one session decode cached RTL (and so reserve
    foreign id ranges) while other threads allocate, which turns that
    window into duplicate registers, i.e. silent miscompiles.  One
    lock per allocation closes it.
    """

    __slots__ = ("_next", "_lock")

    def __init__(self, start: int = 1) -> None:
        self._next = start
        self._lock = threading.Lock()

    def __next__(self) -> int:
        with self._lock:
            n = self._next
            self._next = n + 1
            return n

    def reserve(self, floor: int) -> None:
        """Never hand out an id <= ``floor`` from now on."""
        with self._lock:
            if floor >= self._next:
                self._next = floor + 1


_reg_ids = _IdAllocator(1)


@dataclass(frozen=True)
class Reg:
    """A pseudo (virtual) register."""

    rid: int
    is_float: bool = False
    name: str = ""

    def __str__(self) -> str:
        prefix = "f" if self.is_float else "r"
        suffix = f":{self.name}" if self.name else ""
        return f"%{prefix}{self.rid}{suffix}"


def new_reg(is_float: bool = False, name: str = "") -> Reg:
    """Allocate a fresh pseudo register."""
    return Reg(rid=next(_reg_ids), is_float=is_float, name=name)


def reserve_ids(max_reg: int, max_insn: int) -> None:
    """Advance the global reg/insn counters past externally created IDs.

    RTL deserialized from a cache (or another process) carries reg IDs
    and insn UIDs minted by a *different* counter state; any pass that
    then calls :func:`new_reg` or constructs an :class:`Insn` in this
    process could collide with them.  Callers that import foreign RTL
    must reserve its ID ranges first.
    """
    _reg_ids.reserve(max_reg)
    _insn_ids.reserve(max_insn)


@dataclass
class MemRef:
    """One memory reference inside a LOAD/STORE instruction.

    ``addr`` holds the address at run time.  ``known_symbol`` /
    ``known_offset`` reflect what the *back-end* can see statically:
    populated only for direct ``&symbol + const`` addresses (scalar
    globals/statics, spilled locals, stack arg slots) — array and pointer
    accesses leave them ``None``, reproducing GCC 2.7's conservatism.
    """

    addr: Reg
    width: int = 4
    is_store: bool = False
    known_symbol: Optional[str] = None
    known_offset: Optional[int] = None
    #: Set when the base symbol is visible to the back-end but the offset
    #: is not (e.g. (mem (plus (symbol_ref a) (reg)))).  GCC-level
    #: disambiguation may still separate different symbols in this case —
    #: but only when neither object can be pointed to (see deps.py).
    base_symbol: Optional[str] = None
    #: True when the object's address escapes (may be aliased by pointers);
    #: mirrors RTX MEM_IN_STRUCT / aliasing caveats GCC tracks.
    may_be_aliased: bool = True

    def __str__(self) -> str:
        tag = "st" if self.is_store else "ld"
        if self.known_symbol is not None:
            return f"{tag}[&{self.known_symbol}+{self.known_offset}]"
        if self.base_symbol is not None:
            return f"{tag}[{self.base_symbol}+{self.addr}]"
        return f"{tag}[{self.addr}]"


_insn_ids = _IdAllocator(1)


@dataclass
class Insn:
    """One RTL instruction."""

    op: Opcode
    dst: Optional[Reg] = None
    srcs: tuple = ()  # Reg or int/float immediates
    mem: Optional[MemRef] = None
    label: Optional[str] = None  # for LABEL and branch targets
    callee: Optional[str] = None
    #: arg registers for CALL (read), result register in dst
    line: int = 0
    is_float: bool = False
    uid: int = field(default_factory=lambda: next(_insn_ids))
    #: HLI item mapped by the back-end's line-table matching (mapping.py).
    hli_item: Optional[int] = None
    #: immediate value for LI / LA offset
    imm: object = None
    #: symbol name for LA
    symbol: Optional[str] = None

    def src_regs(self) -> list[Reg]:
        regs = [s for s in self.srcs if isinstance(s, Reg)]
        if self.mem is not None and isinstance(self.mem.addr, Reg):
            regs.append(self.mem.addr)
        return regs

    @property
    def is_mem(self) -> bool:
        return self.mem is not None

    @property
    def is_call(self) -> bool:
        return self.op is Opcode.CALL

    @property
    def is_branch(self) -> bool:
        return self.op in BRANCH_OPS

    def __str__(self) -> str:
        parts = [self.op.value]
        if self.dst is not None:
            parts.append(str(self.dst))
        for s in self.srcs:
            parts.append(str(s))
        if self.imm is not None:
            parts.append(str(self.imm))
        if self.symbol is not None:
            parts.append(f"&{self.symbol}")
        if self.mem is not None:
            parts.append(str(self.mem))
        if self.label is not None:
            parts.append(self.label)
        if self.callee is not None:
            parts.append(self.callee)
        return f"{' '.join(parts)}  ; line {self.line}" + (
            f" item {self.hli_item}" if self.hli_item else ""
        )


@dataclass
class RTLFunction:
    """A lowered function: the instruction chain plus metadata."""

    name: str
    insns: list[Insn] = field(default_factory=list)
    #: parameter value registers, in order
    param_regs: list[Reg] = field(default_factory=list)
    #: register holding the return value (read by RET), if any
    ret_reg: Optional[Reg] = None
    ret_is_float: bool = False
    #: loop structure hints: (header_label, latch_label, exit_label) triples
    loops: list[tuple[str, str, str]] = field(default_factory=list)
    #: local memory frame: symbol name -> (offset, size)
    frame: dict[str, tuple[int, int]] = field(default_factory=dict)
    frame_size: int = 0

    def mem_insns(self) -> Iterator[Insn]:
        for i in self.insns:
            if i.mem is not None:
                yield i

    def labels(self) -> dict[str, int]:
        """Map label name -> index in ``insns``."""
        return {
            i.label: idx
            for idx, i in enumerate(self.insns)
            if i.op is Opcode.LABEL and i.label is not None
        }

    def dump(self) -> str:
        return "\n".join(
            (f"{idx:4d}: " + str(i)) for idx, i in enumerate(self.insns)
        )


@dataclass
class RTLProgram:
    """All lowered functions plus global data layout."""

    functions: dict[str, RTLFunction] = field(default_factory=dict)
    #: global symbol name -> (address, size in bytes)
    globals_layout: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: initial values: address -> value
    init_data: dict[int, object] = field(default_factory=dict)

    def function(self, name: str) -> RTLFunction:
        return self.functions[name]
