"""Golden HLI bytes.

The back end joins its memory references to HLI items by ID and line,
and the session cache stores HLI entries, so a change to the analysis
layer (points-to, REF/MOD, ITEMGEN, TBLCONST) must not move one byte
of ``encode_hli`` output.  These digests pin it over:

* every unit of each registry set, built per file;
* the difftest generator's seeds 0-299;
* suite-v1 under each non-default :class:`PartitionOptions` (the merge
  rules switched off one at a time and together);
* the linked HLI of gen-multiunit-v1's programs, whose REF/MOD tables
  read the linker's ``external_effects``.

The digests were recorded before the analysis layer cached per-member
facts and pair verdicts within a unit build.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis import build_hli
from repro.analysis.eqclasses import PartitionOptions
from repro.bench.registry import materialize, set_names
from repro.difftest.gen import generate
from repro.driver.wpa import compile_whole_program
from repro.frontend import parse_and_check
from repro.hli import encode_hli

SET_DIGESTS = {
    "corpus-v1": "9c3932a9a5aad23e3e22d2b2fe8bef4ee1bfa432eeaf2a15197a09d5ae368ab4",
    "gen-branchy-v1": "7c4629419a517b52540f7da4f909caebdd154c96821854781d30a7018d94c443",
    "gen-deepcall-v1": "34bb314d65e16858b8edef779c2afeae9241fa51882dff42c60909acf771f04b",
    "gen-float-v1": "9b25c6e4ecdb0a0a1e26b8ef6c8ca638afd6d0ef1e115b3eb0e9858762daf739",
    "gen-multiunit-v1": "9970ab92d0e7f593ec7bcca4e28220ebdc8b0728e105c3e6fabe7e4bef52ed6b",
    "gen-pointer-v1": "35ff4609d4337f8378962ed5b2b4327de70d67b273e4ab362c709573bf4ad0e0",
    "kernels-v1": "c40921b9f6f74dace308dbe9a11bf575046e581951db61c73d72b2100ae7927f",
    "quick-v1": "e1866a3b316f4c7696dbe2fcf63a5fbb5c37e420cfa00b7c646c48e893731bcf",
    "suite-v1": "4ec86d68cc7402202d42e46d47fd612df991b085bfcb6ff9a760c4dcfbd1606d",
}

DIFFTEST_SEEDS = range(300)
DIFFTEST_DIGEST = "25c0db5afdd7717a2c04424b8c281241a7e21c617f2dc1f33891792c9cbcf651"

#: (merge_zero_distance, merge_maybe_lifted) -> suite-v1 digest
PARTITION_DIGESTS = {
    (False, True): "c589c12348732f7aca8e10b24427b01712909cb465d8e18081496d2455052adf",
    (True, False): "ef3df5d696405cd7fa9bcca5416d77789a7c75fd047855bbbfbd36ff81fd450b",
    (False, False): "b89679c9feef87c2eec6f01ac365a0416bb9761b12d03010fe1d29e2c2b02bce",
}

WHOLE_PROGRAM_DIGEST = "70ab9887834f3bc94c9eedef04cb7aa8263516f2586bb1cbec7309478ec5de6e"


def hli_digest(units, options: PartitionOptions | None = None) -> str:
    """sha256 over the per-file HLI bytes of ``(filename, source)`` units."""
    h = hashlib.sha256()
    for filename, source in units:
        program, table = parse_and_check(source, filename)
        hli, _info = build_hli(program, table, options)
        h.update(f"== {filename}\n".encode())
        h.update(encode_hli(hli))
    return h.hexdigest()


def test_every_registry_set_is_pinned():
    assert sorted(SET_DIGESTS) == sorted(set_names())


@pytest.mark.parametrize("name", sorted(SET_DIGESTS))
def test_registry_set_hli(name):
    units = (unit for prog in materialize(name) for unit in prog.units)
    assert hli_digest(units) == SET_DIGESTS[name]


def test_difftest_hli():
    units = ((f"seed-{seed}.c", generate(seed)) for seed in DIFFTEST_SEEDS)
    assert hli_digest(units) == DIFFTEST_DIGEST


@pytest.mark.parametrize(
    "merge_zero_distance,merge_maybe_lifted",
    sorted(PARTITION_DIGESTS),
    ids=lambda flag: "on" if flag else "off",
)
def test_suite_hli_under_partition_options(merge_zero_distance, merge_maybe_lifted):
    options = PartitionOptions(
        merge_zero_distance=merge_zero_distance,
        merge_maybe_lifted=merge_maybe_lifted,
    )
    units = (unit for prog in materialize("suite-v1") for unit in prog.units)
    digest = hli_digest(units, options)
    assert digest == PARTITION_DIGESTS[(merge_zero_distance, merge_maybe_lifted)]


def test_linked_hli_of_multiunit_programs():
    h = hashlib.sha256()
    programs = materialize("gen-multiunit-v1")
    assert len(programs) == 18
    for prog in programs:
        result = compile_whole_program(list(prog.units))
        for filename, comp in result.units.items():
            h.update(f"== {prog.name}/{filename}\n".encode())
            h.update(encode_hli(comp.hli))
    assert h.hexdigest() == WHOLE_PROGRAM_DIGEST
