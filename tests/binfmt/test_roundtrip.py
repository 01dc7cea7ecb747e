"""Property-based round-trips for the :mod:`repro.binfmt` codec.

Every blob kind the warm path persists or ships gets a round-trip
check over fuzzer-generated programs (:mod:`repro.difftest.gen`): RTL
functions (the hand-packed :mod:`~repro.binfmt.rtlcodec` layout),
``UnitInfo`` analysis artifacts, the per-function stats slices, whole
``Compilation`` objects (the decode-v1 object blobs), and the linker's
persisted summary tables.  Comparison is structural — set-valued fields
may re-iterate in a different order, so byte equality is deliberately
not the contract.

Corruption is exercised at both layers: truncating a binfmt payload
raises :class:`~repro.binfmt.BinFormatError` (never returns a partial
graph), and flipping any bit of a framed session blob or a persisted
summary table trips the SHA-256 checksum rather than decoding garbage.
"""

from __future__ import annotations

import struct

import pytest

from repro import binfmt
from repro.analysis.builder import FrontEndInfo, UnitInfo
from repro.backend.ddg import DepStats
from repro.backend.mapping import MapStats
from repro.backend.rtl import Insn, MemRef, Opcode, Reg, RTLFunction
from repro.binfmt.rtlcodec import decode_rtl_function, encode_rtl_function
from repro.difftest.gen import GenConfig, generate, generate_units
from repro.driver.compile import Compilation, CompileOptions, compile_source
from repro.linker import analyze_unit, compute_summaries
from repro.linker.persist import (
    SummaryFormatError,
    decode_summaries,
    encode_summaries,
    local_fingerprint,
)
from repro.frontend import parse_and_check

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
        for name, fn in fuzzed.rtl.functions.items():
            back = decode_rtl_function(encode_rtl_function(fn))
            assert_rtl_equal(fn, back)

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
        (n,) = struct.unpack_from("<H", blob, pos)
        pos += 2 + n
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


class TestUnitInfoCodec:
    def test_round_trip(self, fuzzed):
        for name, unit in fuzzed.frontend.units.items():
            back = binfmt.decode(binfmt.encode(unit))
            assert isinstance(back, UnitInfo)
            assert back.fn.name == unit.fn.name
            assert [i.item_id for i in back.items] == [i.item_id for i in unit.items]
            assert [i.kind for i in back.items] == [i.kind for i in unit.items]
            assert [i.line for i in back.items] == [i.line for i in unit.items]
            assert sorted(back.region_by_id) == sorted(unit.region_by_id)
            assert sorted(back.class_info) == sorted(unit.class_info)
            for cid, info in unit.class_info.items():
                got = back.class_info[cid]
                assert got.equiv is info.equiv
                assert got.member_items == info.member_items
                assert got.is_deref == info.is_deref

    def test_frontend_round_trip(self, fuzzed):
        back = binfmt.decode(binfmt.encode(fuzzed.frontend))
        assert isinstance(back, FrontEndInfo)
        assert sorted(back.units) == sorted(fuzzed.frontend.units)
        assert sorted(back.refmod) == sorted(fuzzed.frontend.refmod)
        for name, eff in fuzzed.frontend.refmod.items():
            assert len(back.refmod[name].ref) == len(eff.ref)
            assert len(back.refmod[name].mod) == len(eff.mod)


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


class TestCompilationCodec:
    """Whole Compilation graphs round-trip (the decode-v1 object blobs)."""

    def test_round_trip(self, fuzzed):
        back = binfmt.decode(binfmt.encode(fuzzed))
        assert isinstance(back, Compilation)
        assert back.filename == fuzzed.filename
        assert sorted(back.rtl.functions) == sorted(fuzzed.rtl.functions)
        for name, fn in fuzzed.rtl.functions.items():
            assert_rtl_equal(fn, back.rtl.functions[name])
        assert back.rtl.globals_layout == fuzzed.rtl.globals_layout
        assert back.rtl.init_data == fuzzed.rtl.init_data
        assert sorted(back.hli.entries) == sorted(fuzzed.hli.entries)
        for name, entry in fuzzed.hli.entries.items():
            got = back.hli.entries[name]
            assert got.root_region_id == entry.root_region_id
            assert sorted(got.regions) == sorted(entry.regions)
            assert sorted(got.line_table.entries) == sorted(entry.line_table.entries)

    def test_truncation_raises(self, fuzzed):
        blob = binfmt.encode(fuzzed)
        for cut in (0, 3, len(blob) // 4, len(blob) - 2):
            with pytest.raises(binfmt.BinFormatError):
                binfmt.decode(blob[:cut])


class TestLinkSummaryCodec:
    def _result(self, seed: int):
        units = []
        for filename, source in generate_units(seed, n_units=3):
            program, table = parse_and_check(source, filename)
            units.append(analyze_unit(program, table, filename=filename))
        return units, compute_summaries(units)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_round_trip(self, seed):
        units, result = self._result(seed)
        key = local_fingerprint(units)
        back_key, back = decode_summaries(encode_summaries(result, key))
        assert back_key == key
        assert sorted(back.summaries) == sorted(result.summaries)
        for name, s in result.summaries.items():
            b = back.summaries[name]
            assert (b.unit, b.ref_any, b.mod_any, b.scc_id) == (
                s.unit,
                s.ref_any,
                s.mod_any,
                s.scc_id,
            )
            assert b.ref_names == s.ref_names
            assert b.mod_names == s.mod_names
            assert b.param_ref == s.param_ref
            assert b.param_mod == s.param_mod
        assert back.sccs == result.sccs
        assert back.iterations == result.iterations
        assert back.call_graph == result.call_graph

    def test_bit_flip_raises(self):
        units, result = self._result(SEEDS[0])
        blob = bytearray(encode_summaries(result, local_fingerprint(units)))
        # flip one payload bit: the checksum must catch it
        blob[len(blob) // 2] ^= 0x40
        with pytest.raises(SummaryFormatError, match="checksum|truncated|bad"):
            decode_summaries(bytes(blob))

    def test_truncation_raises(self):
        units, result = self._result(SEEDS[0])
        blob = encode_summaries(result, local_fingerprint(units))
        for cut in (2, 20, len(blob) // 2, len(blob) - 1):
            with pytest.raises(SummaryFormatError):
                decode_summaries(blob[:cut])
