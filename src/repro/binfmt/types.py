"""The cache wire schema: every record type a persisted blob carries.

Like lcc's ASDL interface (Hanson, PAPERS.md), the schema is declared
once and the codec in :mod:`repro.binfmt.core` is derived from it: a
record's wire id is its position in :data:`SCHEMA`, a plain record is
encoded as its declared fields in declared order, and
:func:`repro.binfmt.core.fingerprint` hashes this declaration and the
format version alone.  Editing an AST node or an analysis class
therefore leaves the fingerprint, and every cache blob, untouched;
changing a line below retires them all, by design.

Back-end blobs carry one ``RTLFunction`` (hand-packed by
:mod:`repro.binfmt.rtlcodec`) with the function's statistics records;
front-end blobs carry the ``RTLFunction`` alone.  Everything else a blob
holds is ``None``, ``int``, ``float``, ``str``, ``tuple``, ``list`` or
``dict``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..backend.cse import CSEStats
from ..backend.ddg import DepStats
from ..backend.licm import LICMStats
from ..backend.mapping import MapStats
from ..backend.passes import OptStats
from ..backend.rtl import RTLFunction
from ..backend.unroll import UnrollStats
from ..hli.maintenance import UnrollMaintenance
from .rtlcodec import LAYOUT, decode_rtl_function, encode_rtl_function

__all__ = ["Record", "SCHEMA"]


@dataclass(frozen=True)
class Record:
    """One declared record type.

    A plain record lists its fields: they are encoded in this order and
    passed back to ``cls`` by name.  A hand-packed record instead
    supplies ``encode``/``decode`` functions over one opaque blob, and
    a ``layout`` string that changes whenever its blob's meaning does.
    """

    cls: type
    fields: tuple[str, ...] = ()
    encode: Optional[Callable[[Any], bytes]] = None
    decode: Optional[Callable[[bytes], Any]] = None
    layout: str = ""


SCHEMA: tuple[Record, ...] = (
    Record(
        RTLFunction, encode=encode_rtl_function, decode=decode_rtl_function, layout=LAYOUT
    ),
    Record(MapStats, ("mapped", "unmapped", "mismatched_lines")),
    Record(
        DepStats,
        ("total_tests", "gcc_yes", "hli_yes", "combined_yes", "call_tests", "call_dep"),
    ),
    Record(OptStats, ("cse", "licm", "unroll")),
    Record(
        CSEStats,
        (
            "alu_eliminated",
            "loads_eliminated",
            "call_invalidation_events",
            "entries_kept_across_calls",
            "entries_purged_at_calls",
        ),
    ),
    Record(LICMStats, ("alu_hoisted", "loads_hoisted", "loops_processed")),
    Record(UnrollStats, ("loops_unrolled", "copies_made", "items_cloned", "maintenance")),
    Record(UnrollMaintenance, ("region_id", "factor", "item_copy", "class_copy")),
)
