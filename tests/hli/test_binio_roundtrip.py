"""Round-trip property tests for binio edge cases.

The main hypothesis round-trip in ``test_binio.py`` exercises typical
table shapes; these tests pin down the boundaries of the fixed-width
encoding — empty tables, single-entry sections, maximum-width values,
and the sentinel encodings (``distance=None`` as ``-1``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hli.binio import HLIFormatError, decode_hli, encode_hli
from repro.hli.tables import (
    AliasEntry,
    DepType,
    EqClass,
    EquivType,
    HLIEntry,
    HLIFile,
    ItemType,
    LCDDEntry,
    RefModEntry,
    RefModKey,
    RegionEntry,
    RegionType,
)

from .test_binio import entries_equal

U32_MAX = 0xFFFFFFFF
I32_MIN = -(2**31)
I32_MAX = 2**31 - 1


def roundtrip(hli: HLIFile) -> HLIFile:
    return decode_hli(encode_hli(hli))


def test_empty_file_roundtrips():
    out = roundtrip(HLIFile(source_filename=""))
    assert out.source_filename == ""
    assert out.entries == {}


def test_empty_entry_roundtrips():
    hli = HLIFile(source_filename="a.c")
    hli.add(HLIEntry(unit_name="f"))
    out = roundtrip(hli)
    assert entries_equal(hli.entries["f"], out.entries["f"])


def test_single_entry_every_section():
    """One region carrying exactly one row in every table."""
    entry = HLIEntry(unit_name="g", root_region_id=1)
    entry.line_table.add_item(5, 10, ItemType.LOAD)
    region = RegionEntry(
        region_id=1,
        region_type=RegionType.LOOP,
        parent_id=None,
        line_start=5,
        line_end=9,
        loop_step=1,
        loop_trip=8,
        eq_classes=[
            EqClass(
                class_id=2,
                equiv_type=EquivType.DEFINITE,
                member_items=[10],
                member_classes=[],
            )
        ],
        alias_entries=[AliasEntry(class_ids=frozenset({2, 3}))],
        lcdd_entries=[
            LCDDEntry(src_class=2, dst_class=2, dep_type=DepType.DEFINITE, distance=1)
        ],
        refmod_entries=[
            RefModEntry(
                key_kind=RefModKey.CALL_ITEM,
                key_id=10,
                ref_all=False,
                mod_all=True,
                ref_classes=[2],
                mod_classes=[],
            )
        ],
    )
    entry.regions[1] = region
    hli = HLIFile(source_filename="one.c")
    hli.add(entry)
    out = roundtrip(hli)
    assert entries_equal(entry, out.entries["g"])
    got = out.entries["g"].regions[1]
    assert got.lcdd_entries[0].distance == 1
    assert got.refmod_entries[0].mod_all is True
    assert got.refmod_entries[0].ref_all is False


@pytest.mark.parametrize("distance", [None, 0, 1, I32_MAX])
def test_lcdd_distance_sentinel(distance):
    """``None`` is encoded as -1; 0 is a real (same-iteration) distance
    and must NOT collapse into the sentinel."""
    entry = HLIEntry(unit_name="f", root_region_id=1)
    entry.regions[1] = RegionEntry(
        region_id=1,
        region_type=RegionType.UNIT,
        parent_id=None,
        line_start=1,
        line_end=2,
        lcdd_entries=[
            LCDDEntry(src_class=1, dst_class=2, dep_type=DepType.MAYBE, distance=distance)
        ],
    )
    hli = HLIFile()
    hli.add(entry)
    got = roundtrip(hli).entries["f"].regions[1].lcdd_entries[0]
    assert got.distance == distance


def test_maximum_width_values():
    """IDs at the u32 ceiling and loop fields at the i32 extremes."""
    entry = HLIEntry(unit_name="wide", root_region_id=U32_MAX)
    entry.line_table.add_item(U32_MAX, U32_MAX, ItemType.STORE)
    entry.regions[U32_MAX] = RegionEntry(
        region_id=U32_MAX,
        region_type=RegionType.LOOP,
        parent_id=U32_MAX - 1,
        line_start=U32_MAX,
        line_end=U32_MAX,
        loop_step=I32_MIN,
        loop_trip=I32_MAX,
        eq_classes=[
            EqClass(
                class_id=U32_MAX,
                equiv_type=EquivType.MAYBE,
                member_items=[0, U32_MAX],
                member_classes=[U32_MAX],
            )
        ],
    )
    hli = HLIFile(source_filename="w.c")
    hli.add(entry)
    out = roundtrip(hli)
    assert entries_equal(entry, out.entries["wide"])
    region = out.entries["wide"].regions[U32_MAX]
    assert region.loop_step == I32_MIN
    assert region.loop_trip == I32_MAX


def test_long_and_unicode_names():
    long_name = "u" * 5000  # u16 length field counts bytes, not chars
    hli = HLIFile(source_filename="dir/éт你.c")
    hli.add(HLIEntry(unit_name=long_name))
    out = roundtrip(hli)
    assert out.source_filename == "dir/éт你.c"
    assert long_name in out.entries


def test_truncated_payload_raises():
    data = encode_hli_with_one_region()
    for cut in (3, 5, len(data) // 2, len(data) - 1):
        with pytest.raises(HLIFormatError):
            decode_hli(data[:cut])


def encode_hli_with_one_region() -> bytes:
    entry = HLIEntry(unit_name="f", root_region_id=1)
    entry.line_table.add_item(1, 2, ItemType.LOAD)
    entry.regions[1] = RegionEntry(
        region_id=1, region_type=RegionType.UNIT, parent_id=None,
        line_start=1, line_end=3,
    )
    hli = HLIFile(source_filename="t.c")
    hli.add(entry)
    return encode_hli(hli)


@settings(max_examples=60, deadline=None)
@given(
    n_items=st.integers(min_value=0, max_value=3),
    item_ids=st.lists(st.integers(min_value=0, max_value=U32_MAX), min_size=3, max_size=3),
    step=st.integers(min_value=I32_MIN, max_value=I32_MAX),
    trip=st.integers(min_value=I32_MIN, max_value=I32_MAX),
    distance=st.one_of(st.none(), st.integers(min_value=0, max_value=I32_MAX)),
)
def test_roundtrip_property_boundaries(n_items, item_ids, step, trip, distance):
    entry = HLIEntry(unit_name="p", root_region_id=1)
    for k in range(n_items):
        entry.line_table.add_item(k + 1, item_ids[k], ItemType.LOAD)
    entry.regions[1] = RegionEntry(
        region_id=1,
        region_type=RegionType.LOOP,
        parent_id=None,
        line_start=1,
        line_end=9,
        loop_step=step,
        loop_trip=trip,
        lcdd_entries=[
            LCDDEntry(src_class=1, dst_class=1, dep_type=DepType.MAYBE, distance=distance)
        ],
    )
    hli = HLIFile(source_filename="p.c")
    hli.add(entry)
    out = roundtrip(hli)
    assert entries_equal(entry, out.entries["p"])
