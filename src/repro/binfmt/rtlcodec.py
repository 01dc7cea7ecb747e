"""Hand-packed codec for :class:`repro.backend.rtl.RTLFunction`.

RTL bodies dominate warm-path decode time (thousands of instructions per
suite), so they get a fixed-layout struct encoding instead of the
generic tagged tree: a local string table, a register table, and one
packed record per instruction.  Measured against pickle on the
14-program suite this decodes ~15% faster at ~60% of the bytes.

Layout (little-endian), used as the packed blob of the declared
``RTLFunction`` record inside :mod:`repro.binfmt.core` messages:

* header: ``<II`` max reg id / max insn uid (decode advances the global
  allocators past them — foreign RTL must never collide with ids minted
  locally), then the function name (string id), ``<I`` frame_size,
  ``<B`` ret_is_float;
* string table: ``<I`` count, then per string ``<I`` utf-8 byte length
  + bytes (string literals can be long).  String id 0 is reserved for
  ``None``;
* register table: ``<I`` count, then per register ``<IBH`` rid /
  is_float / name byte length + name bytes.  Registers are referenced
  by ``<I`` table index below (index 0 reserved for "no register");
* param_regs: ``<H`` count + ``<I`` reg indexes; ret_reg: ``<I``;
* loops: ``<H`` count + ``<III`` string ids (header, latch, exit);
* frame: ``<H`` count + per slot string id + ``<qI`` offset / size;
* insns: ``<I`` count, then per insn:

  - ``<BBIIB`` opcode index (declaration order in :class:`Opcode`) /
    src count / uid / line / flags (1 = is_float, 2 = has mem);
  - ``<I`` dst reg index;
  - per src one tag byte: ``R`` + ``<I`` reg index, ``I`` + ``<q``,
    or ``F`` + ``<d``;
  - when flag 2: ``<IIB`` addr reg index / width / memflags (1 =
    is_store, 2 = has known_offset, 4 = may_be_aliased), ``<q`` offset
    when present, ``<II`` known_symbol / base_symbol string ids;
  - ``<III`` label / callee / symbol string ids;
  - ``<I`` hli_item + 1 (0 = None);
  - imm tag byte ``N`` / ``I`` + ``<q`` / ``F`` + ``<d`` / ``S`` +
    ``<I`` string id (a string literal).

The layout also leans on :mod:`repro.backend.rtl` itself: opcodes travel
as their index and decoded objects get their fields by name.
:data:`LAYOUT` records that dependence and the declared schema carries
it into :func:`repro.binfmt.core.fingerprint`.
"""

from __future__ import annotations

import struct
from dataclasses import fields
from typing import Any, Iterable, Optional

from ..backend import rtl as _rtl
from ..backend.rtl import Insn, MemRef, Opcode, Reg, RTLFunction
from .errors import BinFormatError

__all__ = ["LAYOUT", "decode_rtl_function", "encode_rtl_function"]

_OPCODES = list(Opcode)
_OPCODE_INDEX = {op: i for i, op in enumerate(_OPCODES)}


def _layout(opcodes: Iterable[Any], classes: Iterable[Any]) -> str:
    """The opcode order and each class's field names, as one string."""
    parts = ["Opcode:" + ",".join(op.name for op in opcodes)]
    parts += [f"{cls.__name__}:" + ",".join(f.name for f in fields(cls)) for cls in classes]
    return ";".join(parts)


#: What the packed blob assumes of :mod:`repro.backend.rtl`.  Inserting or
#: reordering an opcode, or editing an RTL class's fields, changes it and
#: so the fingerprint: old blobs are evicted instead of decoding into the
#: wrong opcodes or into objects missing a field.
LAYOUT = _layout(_OPCODES, (RTLFunction, Insn, MemRef, Reg))

_F_IS_FLOAT = 1
_F_HAS_MEM = 2
_MF_IS_STORE = 1
_MF_HAS_OFFSET = 2
_MF_ALIASED = 4

_HDR = struct.Struct("<II")
_INSN = struct.Struct("<BBIIB")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_REGREC = struct.Struct("<IBH")
_MEMREC = struct.Struct("<IIB")
_LOOP = struct.Struct("<III")
_FRAME = struct.Struct("<qI")


class _Tables:
    """Deduplicating string + register tables local to one function."""

    __slots__ = ("strings", "string_ids", "regs", "reg_ids")

    def __init__(self) -> None:
        self.strings: list[str] = []
        self.string_ids: dict[str, int] = {}
        self.regs: list[Reg] = []
        self.reg_ids: dict[tuple[int, bool, str], int] = {}

    def sid(self, s: Optional[str]) -> int:
        if s is None:
            return 0
        idx = self.string_ids.get(s)
        if idx is None:
            idx = len(self.strings) + 1
            self.string_ids[s] = idx
            self.strings.append(s)
        return idx

    def rid(self, r: Optional[Reg]) -> int:
        if r is None:
            return 0
        # Dedup by value: equal frozen Regs are interchangeable.
        key = (r.rid, r.is_float, r.name)
        idx = self.reg_ids.get(key)
        if idx is None:
            idx = len(self.regs) + 1
            self.reg_ids[key] = idx
            self.regs.append(r)
        return idx


def encode_rtl_function(fn: RTLFunction) -> bytes:
    """Pack one RTL function into the fixed layout above."""
    t = _Tables()
    body = bytearray()

    body += _U32.pack(len(fn.insns))
    max_uid = 0
    for insn in fn.insns:
        flags = (_F_IS_FLOAT if insn.is_float else 0) | (_F_HAS_MEM if insn.mem else 0)
        max_uid = max(max_uid, insn.uid)
        body += _INSN.pack(
            _OPCODE_INDEX[insn.op], len(insn.srcs), insn.uid, insn.line, flags
        )
        body += _U32.pack(t.rid(insn.dst))
        for s in insn.srcs:
            if isinstance(s, Reg):
                body += b"R" + _U32.pack(t.rid(s))
            elif type(s) is float:
                body += b"F" + _F64.pack(s)
            elif isinstance(s, int):
                body += b"I" + _I64.pack(int(s))
            else:
                raise BinFormatError(f"unencodable RTL source {s!r}")
        m = insn.mem
        if m is not None:
            mflags = (
                (_MF_IS_STORE if m.is_store else 0)
                | (_MF_HAS_OFFSET if m.known_offset is not None else 0)
                | (_MF_ALIASED if m.may_be_aliased else 0)
            )
            body += _MEMREC.pack(t.rid(m.addr), m.width, mflags)
            if m.known_offset is not None:
                body += _I64.pack(m.known_offset)
            body += _U32.pack(t.sid(m.known_symbol))
            body += _U32.pack(t.sid(m.base_symbol))
        body += _U32.pack(t.sid(insn.label))
        body += _U32.pack(t.sid(insn.callee))
        body += _U32.pack(t.sid(insn.symbol))
        body += _U32.pack(0 if insn.hli_item is None else insn.hli_item + 1)
        imm = insn.imm
        if imm is None:
            body += b"N"
        elif type(imm) is int:
            body += b"I" + _I64.pack(imm)
        elif type(imm) is float:
            body += b"F" + _F64.pack(imm)
        elif type(imm) is str:
            body += b"S" + _U32.pack(t.sid(imm))
        else:
            raise BinFormatError(f"unencodable RTL immediate {imm!r}")

    body += _U16.pack(len(fn.param_regs))
    for r in fn.param_regs:
        body += _U32.pack(t.rid(r))
    body += _U32.pack(t.rid(fn.ret_reg))

    body += _U16.pack(len(fn.loops))
    for header, latch, exit_ in fn.loops:
        body += _LOOP.pack(t.sid(header), t.sid(latch), t.sid(exit_))

    body += _U16.pack(len(fn.frame))
    for name, (off, size) in fn.frame.items():
        body += _U32.pack(t.sid(name))
        body += _FRAME.pack(off, size)

    max_reg = max((r.rid for r in t.regs), default=0)

    out = bytearray()
    out += _HDR.pack(max_reg, max_uid)
    out += _U32.pack(t.sid(fn.name))
    out += _U32.pack(fn.frame_size)
    out += _U8.pack(1 if fn.ret_is_float else 0)
    out += _U32.pack(len(t.strings))
    for s in t.strings:
        data = s.encode("utf-8", "surrogatepass")
        out += _U32.pack(len(data))
        out += data
    out += _U32.pack(len(t.regs))
    for r in t.regs:
        data = r.name.encode("utf-8", "surrogatepass")
        out += _REGREC.pack(r.rid, 1 if r.is_float else 0, len(data))
        out += data
    out += body
    return bytes(out)


def decode_rtl_function(data: bytes) -> RTLFunction:
    """Decode :func:`encode_rtl_function` output.

    Reserves the blob's reg/uid id ranges on the process-global
    allocators, so passes that mint fresh registers afterwards can
    never collide with the cached body.

    The body is the warm path's hottest decode loop — reads are inlined
    ``unpack_from`` calls over a local cursor, instructions are built by
    writing ``__dict__`` directly (skips dataclass ``__init__`` and its
    uid default factory), and all bounds errors funnel through one
    ``except`` into :class:`BinFormatError`.
    """
    try:
        return _decode_body(data)
    except BinFormatError:
        raise
    except (struct.error, IndexError, UnicodeDecodeError, ValueError) as exc:
        raise BinFormatError(f"malformed RTL blob: {exc!r}") from exc


def _decode_body(data: bytes) -> RTLFunction:
    pos = 0
    max_reg, max_uid = _HDR.unpack_from(data, pos)
    pos += 8
    _rtl.reserve_ids(max_reg, max_uid)

    name_sid, frame_size, ret_is_float_b = struct.unpack_from("<IIB", data, pos)
    pos += 9

    (n_strings,) = _U32.unpack_from(data, pos)
    pos += 4
    if n_strings > len(data):
        raise BinFormatError("string table count exceeds payload")
    strings: list[Optional[str]] = [None]
    for _ in range(n_strings):
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        end = pos + n
        if end > len(data):
            raise BinFormatError("truncated RTL string table")
        strings.append(data[pos:end].decode("utf-8", "surrogatepass"))
        pos = end

    (n_regs,) = _U32.unpack_from(data, pos)
    pos += 4
    if n_regs > len(data):
        raise BinFormatError("register table count exceeds payload")
    regs: list[Optional[Reg]] = [None]
    for _ in range(n_regs):
        rid, is_float, name_len = _REGREC.unpack_from(data, pos)
        pos += 7
        end = pos + name_len
        if end > len(data):
            raise BinFormatError("truncated RTL register table")
        rname = data[pos:end].decode("utf-8", "surrogatepass")
        pos = end
        regs.append(Reg(rid=rid, is_float=bool(is_float), name=rname))

    (n_insns,) = _U32.unpack_from(data, pos)
    pos += 4
    if n_insns > len(data):
        raise BinFormatError("instruction count exceeds payload")
    insns: list[Insn] = []
    insn_unpack = _INSN.unpack_from
    u32_unpack = _U32.unpack_from
    new_insn = Insn.__new__
    new_mem = MemRef.__new__
    opcodes = _OPCODES
    for _ in range(n_insns):
        op_idx, n_srcs, uid, line, flags = insn_unpack(data, pos)
        pos += 11
        (dst_idx,) = u32_unpack(data, pos)
        pos += 4
        srcs = []
        for _s in range(n_srcs):
            tag = data[pos]
            pos += 1
            if tag == 0x52:  # 'R'
                (sidx,) = u32_unpack(data, pos)
                pos += 4
                src = regs[sidx]
                if src is None:
                    raise BinFormatError("source register id 0")
                srcs.append(src)
            elif tag == 0x49:  # 'I'
                srcs.append(_I64.unpack_from(data, pos)[0])
                pos += 8
            elif tag == 0x46:  # 'F'
                srcs.append(_F64.unpack_from(data, pos)[0])
                pos += 8
            else:
                raise BinFormatError(f"unknown source tag {tag:#x}")
        mem = None
        if flags & _F_HAS_MEM:
            addr_idx, width, mflags = _MEMREC.unpack_from(data, pos)
            pos += 9
            addr = regs[addr_idx]
            if addr is None:
                raise BinFormatError("mem addr register id 0")
            if mflags & _MF_HAS_OFFSET:
                (known_offset,) = _I64.unpack_from(data, pos)
                pos += 8
            else:
                known_offset = None
            ks_idx, bs_idx = struct.unpack_from("<II", data, pos)
            pos += 8
            mem = new_mem(MemRef)
            mem.__dict__.update(
                addr=addr,
                width=width,
                is_store=bool(mflags & _MF_IS_STORE),
                known_symbol=strings[ks_idx],
                known_offset=known_offset,
                base_symbol=strings[bs_idx],
                may_be_aliased=bool(mflags & _MF_ALIASED),
            )
        label_idx, callee_idx, symbol_idx, raw_item = struct.unpack_from("<IIII", data, pos)
        pos += 16
        tag = data[pos]
        pos += 1
        imm: object
        if tag == 0x4E:  # 'N'
            imm = None
        elif tag == 0x49:  # 'I'
            (imm,) = _I64.unpack_from(data, pos)
            pos += 8
        elif tag == 0x46:  # 'F'
            (imm,) = _F64.unpack_from(data, pos)
            pos += 8
        elif tag == 0x53:  # 'S'
            (imm_idx,) = u32_unpack(data, pos)
            pos += 4
            imm = strings[imm_idx]
            if imm is None:
                raise BinFormatError("string immediate id 0")
        else:
            raise BinFormatError(f"unknown imm tag {tag:#x}")
        insn = new_insn(Insn)
        insn.__dict__.update(
            op=opcodes[op_idx],
            dst=regs[dst_idx],
            srcs=tuple(srcs),
            mem=mem,
            label=strings[label_idx],
            callee=strings[callee_idx],
            line=line,
            is_float=bool(flags & _F_IS_FLOAT),
            uid=uid,
            hli_item=raw_item - 1 if raw_item else None,
            imm=imm,
            symbol=strings[symbol_idx],
        )
        insns.append(insn)

    (n_params,) = _U16.unpack_from(data, pos)
    pos += 2
    param_regs = []
    for _ in range(n_params):
        (pidx,) = u32_unpack(data, pos)
        pos += 4
        p = regs[pidx]
        if p is None:
            raise BinFormatError("param register id 0")
        param_regs.append(p)
    (ret_idx,) = u32_unpack(data, pos)
    pos += 4
    ret_reg = regs[ret_idx]

    (n_loops,) = _U16.unpack_from(data, pos)
    pos += 2
    loops = []
    for _ in range(n_loops):
        h, latch, e = _LOOP.unpack_from(data, pos)
        pos += 12
        hs, ls, es = strings[h], strings[latch], strings[e]
        if hs is None or ls is None or es is None:
            raise BinFormatError("loop label string id 0")
        loops.append((hs, ls, es))

    (n_frame,) = _U16.unpack_from(data, pos)
    pos += 2
    frame: dict[str, tuple[int, int]] = {}
    for _ in range(n_frame):
        (slot_idx,) = u32_unpack(data, pos)
        pos += 4
        slot = strings[slot_idx]
        if slot is None:
            raise BinFormatError("frame slot string id 0")
        off, size = _FRAME.unpack_from(data, pos)
        pos += 12
        frame[slot] = (off, size)

    if pos != len(data):
        raise BinFormatError("trailing bytes after RTL function")

    name = strings[name_sid]
    if name is None:
        raise BinFormatError("function name string id 0")
    return RTLFunction(
        name=name,
        insns=insns,
        param_regs=param_regs,
        ret_reg=ret_reg,
        ret_is_float=bool(ret_is_float_b),
        loops=loops,
        frame=frame,
        frame_size=frame_size,
    )
