"""Property-based round-trips for the :mod:`repro.binfmt` codec.

Every blob kind the warm path persists gets a round-trip check over
fuzzer-generated programs (:mod:`repro.difftest.gen`): RTL functions
(the hand-packed :mod:`~repro.binfmt.rtlcodec` layout) and the
per-function stats records.  Comparison is structural, so byte equality
is deliberately not the contract.  The declared schema is pinned too:
every plain record's field list must match its dataclass, and any
undeclared type is refused on encode.

Truncating a binfmt payload raises :class:`~repro.binfmt.BinFormatError`
(never returns a partial graph).  The checksummed session frame around
these payloads is corrupted in ``tests/driver/test_session.py``.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
from collections import OrderedDict

import pytest

from repro import binfmt
from repro.backend.ddg import DDGMode, DepStats
from repro.backend.mapping import MapStats
from repro.backend.rtl import Insn, MemRef, Opcode, Reg, RTLFunction
from repro.binfmt import core, rtlcodec
from repro.binfmt.rtlcodec import decode_rtl_function, encode_rtl_function
from repro.binfmt.types import SCHEMA
from repro.difftest.gen import GenConfig, generate
from repro.driver.compile import CompileOptions, compile_source

SEEDS = (3, 17, 91)


@pytest.fixture(scope="module", params=SEEDS)
def fuzzed(request):
    source = generate(request.param, GenConfig(functions=3, structs=True))
    return compile_source(source, f"fuzz{request.param}.c", CompileOptions(cse=True, licm=True))


def assert_rtl_equal(a: RTLFunction, b: RTLFunction) -> None:
    assert a.name == b.name
    assert len(a.insns) == len(b.insns)
    for ia, ib in zip(a.insns, b.insns):
        assert ia.op is ib.op
        assert ia.dst == ib.dst
        assert ia.srcs == ib.srcs
        assert ia.label == ib.label
        assert ia.callee == ib.callee
        assert ia.line == ib.line
        assert ia.is_float == ib.is_float
        assert ia.imm == ib.imm
        assert ia.symbol == ib.symbol
        assert ia.hli_item == ib.hli_item
        assert (ia.mem is None) == (ib.mem is None)
        if ia.mem is not None:
            assert ia.mem.addr == ib.mem.addr
            assert ia.mem.width == ib.mem.width
            assert ia.mem.is_store == ib.mem.is_store
    assert a.param_regs == b.param_regs
    assert a.ret_reg == b.ret_reg
    assert a.ret_is_float == b.ret_is_float
    assert a.loops == b.loops
    assert a.frame == b.frame
    assert a.frame_size == b.frame_size


class TestRTLFunctionCodec:
    def test_round_trip(self, fuzzed):
        # Insn and MemRef are rebuilt by writing __dict__ directly, so a
        # field the decoder misses would surface later as AttributeError
        insn_fields = {f.name for f in dataclasses.fields(Insn)}
        mem_fields = {f.name for f in dataclasses.fields(MemRef)}
        for name, fn in fuzzed.rtl.functions.items():
            back = decode_rtl_function(encode_rtl_function(fn))
            assert_rtl_equal(fn, back)
            assert back.insns == fn.insns
            for insn in back.insns:
                assert set(vars(insn)) == insn_fields
                if insn.mem is not None:
                    assert set(vars(insn.mem)) == mem_fields

    def test_generic_codec_round_trip(self, fuzzed):
        # the generic OBJ path (used inside composite payloads) must
        # agree with the hand-packed codec
        for fn in fuzzed.rtl.functions.values():
            back = binfmt.decode(binfmt.encode(fn))
            assert isinstance(back, RTLFunction)
            assert_rtl_equal(fn, back)

    def test_truncation_raises(self, fuzzed):
        fn = next(iter(fuzzed.rtl.functions.values()))
        blob = encode_rtl_function(fn)
        for cut in (0, 1, len(blob) // 3, len(blob) // 2, len(blob) - 1):
            with pytest.raises(binfmt.BinFormatError):
                decode_rtl_function(blob[:cut])

    def test_string_immediate_round_trips(self):
        # non-ASCII, and longer than a u16 byte length can describe
        texts = ("héllo, wörld ✓\n", "ü" * 40_000)
        fn = RTLFunction(
            name="s",
            insns=[
                Insn(Opcode.LI, dst=Reg(1), imm=texts[0], uid=1),
                Insn(Opcode.LI, dst=Reg(2), imm=texts[1], uid=2),
                Insn(Opcode.RET, srcs=(Reg(1),), uid=3),
            ],
        )
        for back in (
            decode_rtl_function(encode_rtl_function(fn)),
            binfmt.decode(binfmt.encode(fn)),
        ):
            assert_rtl_equal(fn, back)
            assert tuple(i.imm for i in back.insns[:2]) == texts

    def test_unknown_immediate_tag_raises(self):
        fn = RTLFunction(name="n", insns=[Insn(Opcode.LI, dst=Reg(1), uid=1)])
        blob = bytearray(encode_rtl_function(fn))
        # the lone insn's imm tag, before <H params, <I ret, <H loops, <H frame
        assert blob[-11:-10] == b"N"
        blob[-11] = ord("O")  # the retired nested-blob tag
        with pytest.raises(binfmt.BinFormatError, match="imm tag"):
            decode_rtl_function(bytes(blob))
        fn.insns[0].imm = (1, 2)
        with pytest.raises(binfmt.BinFormatError, match="immediate"):
            encode_rtl_function(fn)


#: (rid, is_float, name) of the registers below; the first two share a
#: rid and differ only in name, the third only in class
_REG_KEYS = ((1, False, ""), (1, False, "i"), (1, True, ""), (2, False, "p"))


def _reg_function(fresh_regs: bool) -> RTLFunction:
    """A function using every register of ``_REG_KEYS`` several times:
    through one shared ``Reg`` object per register, or through a new but
    equal object at every use."""
    shared = [Reg(*key) for key in _REG_KEYS]

    def reg(k: int) -> Reg:
        return Reg(*_REG_KEYS[k]) if fresh_regs else shared[k]

    insns = [
        Insn(Opcode.LI, dst=reg(0), imm=7, uid=1),
        Insn(Opcode.MOVE, dst=reg(1), srcs=(reg(0),), uid=2),
        Insn(Opcode.CVT_IF, dst=reg(2), srcs=(reg(1),), is_float=True, uid=3),
        Insn(Opcode.LOAD, dst=reg(0), mem=MemRef(addr=reg(3)), uid=4),
        Insn(Opcode.ADD, dst=reg(1), srcs=(reg(0), reg(1)), uid=5),
        Insn(Opcode.STORE, srcs=(reg(1),), mem=MemRef(addr=reg(3), is_store=True), uid=6),
        Insn(Opcode.RET, srcs=(reg(1),), uid=7),
    ]
    return RTLFunction(name="regs", insns=insns, param_regs=[reg(3)], ret_reg=reg(1))


def _register_rows(blob: bytes) -> int:
    """Register-table row count, read past the header and string table."""
    pos = 17  # <II max ids, <I name, <I frame_size, <B ret_is_float
    (n_strings,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    for _ in range(n_strings):
        (n,) = struct.unpack_from("<I", blob, pos)
        pos += 4 + n
    return struct.unpack_from("<I", blob, pos)[0]


class TestRegisterDedup:
    def test_equal_registers_share_one_row(self):
        shared = encode_rtl_function(_reg_function(fresh_regs=False))
        fresh = encode_rtl_function(_reg_function(fresh_regs=True))
        assert fresh == shared
        assert _register_rows(fresh) == len(_REG_KEYS)

    def test_equal_registers_decode_to_one_object(self):
        back = decode_rtl_function(encode_rtl_function(_reg_function(fresh_regs=True)))
        seen: dict[tuple, set[int]] = {}
        for insn in back.insns:
            for r in [insn.dst, *insn.src_regs()]:
                if r is not None:
                    seen.setdefault((r.rid, r.is_float, r.name), set()).add(id(r))
        for r in (*back.param_regs, back.ret_reg):
            seen[(r.rid, r.is_float, r.name)].add(id(r))
        assert set(seen) == set(_REG_KEYS)
        assert all(len(ids) == 1 for ids in seen.values())


class TestStatsCodecs:
    def test_stats_slices_round_trip(self, fuzzed):
        for name in fuzzed.rtl.functions:
            ms = fuzzed.map_stats.get(name, MapStats())
            ds = fuzzed.dep_stats.get(name, DepStats())
            ms2, ds2 = binfmt.decode(binfmt.encode((ms, ds)))
            assert ms2.mapped == ms.mapped
            assert ms2.unmapped == ms.unmapped
            assert ms2.mismatched_lines == ms.mismatched_lines
            assert ds2.total_tests == ds.total_tests
            assert ds2.gcc_yes == ds.gcc_yes
            assert ds2.hli_yes == ds.hli_yes
            assert ds2.combined_yes == ds.combined_yes
            assert ds2.call_tests == ds.call_tests
            assert ds2.call_dep == ds.call_dep

    def test_opt_stats_round_trip(self, fuzzed):
        os2 = binfmt.decode(binfmt.encode(fuzzed.opt_stats))
        assert os2.cse.alu_eliminated == fuzzed.opt_stats.cse.alu_eliminated
        assert os2.cse.loads_eliminated == fuzzed.opt_stats.cse.loads_eliminated
        assert os2.licm.alu_hoisted == fuzzed.opt_stats.licm.alu_hoisted
        assert os2.licm.loads_hoisted == fuzzed.opt_stats.licm.loads_hoisted
        assert os2.unroll.loops_unrolled == fuzzed.opt_stats.unroll.loops_unrolled

    def test_be_payload_truncation_raises(self, fuzzed):
        # the shape of a back-end blob's binfmt chunk
        name, fn = next(iter(fuzzed.rtl.functions.items()))
        blob = binfmt.encode(
            (fn, 3, fuzzed.map_stats.get(name), fuzzed.dep_stats.get(name), fuzzed.opt_stats)
        )
        for cut in (0, 3, len(blob) // 4, len(blob) - 2):
            with pytest.raises(binfmt.BinFormatError):
                binfmt.decode(blob[:cut])


class TestDeclaredSchema:
    @pytest.mark.parametrize(
        "record", [r for r in SCHEMA if r.encode is None], ids=lambda r: r.cls.__name__
    )
    def test_declared_fields_match_the_dataclass(self, record):
        assert record.fields == tuple(f.name for f in dataclasses.fields(record.cls))

    def test_packed_records_declare_both_hooks(self):
        # a record with an encode hook but no decode would decode as an
        # empty plain record, and one without a layout would hide its
        # blob's meaning from the fingerprint
        for r in SCHEMA:
            assert (r.encode is None) == (r.decode is None) == (not r.layout)

    def test_fingerprint_covers_the_rtl_layout(self):
        packed = (RTLFunction, Insn, MemRef, Reg)
        assert SCHEMA[0].layout == rtlcodec.LAYOUT == rtlcodec._layout(Opcode, packed)
        assert core._schema_fingerprint(SCHEMA) == binfmt.fingerprint()
        names = [op.name for op in Opcode]
        inserted = enum.Enum("Opcode", ["NEW", *names])
        wider_insn = dataclasses.make_dataclass(
            "Insn", [f.name for f in dataclasses.fields(Insn)] + ["extra"]
        )
        edits = (
            rtlcodec._layout(reversed(list(Opcode)), packed),
            rtlcodec._layout(inserted, packed),
            rtlcodec._layout(Opcode, (RTLFunction, wider_insn, MemRef, Reg)),
        )
        for layout in edits:
            schema = (dataclasses.replace(SCHEMA[0], layout=layout), *SCHEMA[1:])
            assert core._schema_fingerprint(schema) != binfmt.fingerprint()

    def test_primitives_and_containers_round_trip(self):
        value = (None, 0, -7, 2**70, 1.5, "ü", "ü", (1, "x"), [[], {}], {(1, 2): 3, "k": [None]})
        assert binfmt.decode(binfmt.encode(value)) == value

    @pytest.mark.parametrize(
        "value",
        [
            True,
            b"bytes",
            {1, 2},
            frozenset({1}),
            OrderedDict(a=1),
            DDGMode.GCC,
            len,
            Reg(1),
            (1, [None, False]),
        ],
        ids=repr,
    )
    def test_undeclared_types_raise(self, value):
        with pytest.raises(binfmt.BinFormatError, match="not a declared record"):
            binfmt.encode(value)

    @pytest.mark.parametrize(
        "data",
        [b"", bytes([99]), bytes([8, 40]), bytes([6, 5, 0]), bytes([6, 1]) * 5000 + bytes([0])],
        ids=["empty", "unknown tag", "record id", "list count", "deep nesting"],
    )
    def test_malformed_input_raises(self, data):
        with pytest.raises(binfmt.BinFormatError):
            binfmt.decode(data)

