"""HLI query functions — the back-end's only access path to the HLI.

The paper (Section 3.2.2) specifies that "the stored HLI can be retrieved
only via a set of query functions" with five basic queries.  This module
implements them over a loaded :class:`~repro.hli.tables.HLIEntry`:

* :meth:`HLIQuery.get_equiv_acc`  — may/must two items access the same
  location within one iteration? (paper ``HLI_GetEquivAcc``, Figure 5)
* :meth:`HLIQuery.get_alias`      — alias-table-only variant;
* :meth:`HLIQuery.get_lcdd`       — loop-carried dependences between two
  items with respect to a loop region;
* :meth:`HLIQuery.get_call_acc`   — REF/MOD effect of a call item on a
  memory item (paper ``HLI_GetCallAcc``, Figure 4);
* :meth:`HLIQuery.get_region_info` — structural hints (region id, type,
  nesting) for scheduling heuristics.

Queries answer ``UNKNOWN`` for items the HLI does not cover (the paper's
"unknown dependence types"); the back-end must then fall back to its own
conservative analysis.

A query object snapshots ``entry.generation`` at construction.  Once a
maintenance function mutates the entry, every query method raises
:class:`StaleQueryError` until :meth:`HLIQuery.refresh` (or a fresh
``HLIQuery``) rebuilds the indices — stale indices used to silently
return wrong answers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..obs import metrics as _metrics
from . import faults as _faults
from .tables import (
    EquivType,
    HLIEntry,
    LCDDEntry,
    RefModEntry,
    RefModKey,
    RegionEntry,
    RegionType,
)


class StaleQueryError(RuntimeError):
    """A query was used after maintenance mutated its underlying entry.

    The indices built at construction time no longer reflect the tables;
    call :meth:`HLIQuery.refresh` or build a new :class:`HLIQuery`.
    """


class EquivAcc(enum.Enum):
    """Result of an equivalent-access query."""

    NONE = "none"  # provably distinct locations (within an iteration)
    DEFINITE = "definite"  # provably the same location
    MAYBE = "maybe"  # may overlap
    UNKNOWN = "unknown"  # item not covered by HLI


class CallAcc(enum.Enum):
    """Result of a call REF/MOD query (paper HLI_CALL_*)."""

    NONE = "none"
    REF = "ref"
    MOD = "mod"
    REFMOD = "refmod"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class RegionInfo:
    """Structural information about the region holding an item."""

    region_id: int
    region_type: RegionType
    parent_id: Optional[int]
    depth: int
    loop_step: int
    loop_trip: int


class HLIQuery:
    """Indexed, read-only view over one unit's HLI entry."""

    def __init__(self, entry: HLIEntry) -> None:
        self.entry = entry
        self.refresh()

    # -- staleness ------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Entry generation the current indices were built against."""
        return self._generation

    @property
    def is_stale(self) -> bool:
        return self._generation != self.entry.generation

    def _check_fresh(self) -> None:
        if self._generation != self.entry.generation:
            raise StaleQueryError(
                f"HLIQuery for unit '{self.entry.unit_name}' was built at "
                f"generation {self._generation} but the entry is now at "
                f"generation {self.entry.generation}; call refresh() or "
                "build a new HLIQuery after HLI maintenance"
            )

    def refresh(self) -> "HLIQuery":
        """Rebuild the indices against the entry's current generation."""
        self._generation = self.entry.generation
        #: item id -> region id whose class table lists it
        self._item_home: dict[int, int] = {}
        #: item id -> class id in its home region
        self._item_class: dict[int, int] = {}
        #: class id -> region id that defines it
        self._class_region: dict[int, int] = {}
        #: class id -> class id of the parent-region class containing it
        self._class_up: dict[int, int] = {}
        #: call item id -> region id holding its CALL_ITEM refmod entry
        self._call_region: dict[int, int] = {}
        #: region id -> depth (root = 0)
        self._depth: dict[int, int] = {}
        self._index()
        return self

    # -- index construction ---------------------------------------------------

    def _index(self) -> None:
        for region in self.entry.regions.values():
            for cls in region.eq_classes:
                self._class_region[cls.class_id] = region.region_id
                for iid in cls.member_items:
                    self._item_home[iid] = region.region_id
                    self._item_class[iid] = cls.class_id
                for sub_cls in cls.member_classes:
                    self._class_up[sub_cls] = cls.class_id
            for rm in region.refmod_entries:
                if rm.key_kind is RefModKey.CALL_ITEM:
                    self._call_region[rm.key_id] = region.region_id
        for region in self.entry.regions.values():
            d = 0
            r: Optional[RegionEntry] = region
            while r is not None and r.parent_id is not None:
                d += 1
                r = self.entry.regions.get(r.parent_id)
            self._depth[region.region_id] = d

    # -- region navigation -------------------------------------------------------

    def _ancestors(self, region_id: int) -> list[int]:
        out = [region_id]
        r = self.entry.regions.get(region_id)
        while r is not None and r.parent_id is not None:
            out.append(r.parent_id)
            r = self.entry.regions.get(r.parent_id)
        return out

    def common_region(self, item_a: int, item_b: int) -> Optional[int]:
        """Innermost region enclosing the homes of both items."""
        self._check_fresh()
        home_a = self._item_home.get(item_a)
        home_b = self._item_home.get(item_b)
        if home_a is None or home_b is None:
            return None
        anc_b = set(self._ancestors(home_b))
        for rid in self._ancestors(home_a):
            if rid in anc_b:
                return rid
        return None

    def class_at(self, item_id: int, region_id: int) -> Optional[int]:
        """The class representing ``item_id`` at ``region_id`` (an ancestor
        of the item's home region), or None."""
        self._check_fresh()
        cls = self._item_class.get(item_id)
        while cls is not None:
            if self._class_region.get(cls) == region_id:
                return cls
            cls = self._class_up.get(cls)
        return None

    def item_home(self, item_id: int) -> Optional[int]:
        self._check_fresh()
        return self._item_home.get(item_id)

    # -- query 1: equivalent access (Figure 5) ------------------------------------

    def get_equiv_acc(self, item_a: int, item_b: int) -> EquivAcc:
        """May/must items ``a`` and ``b`` access the same memory location
        within a single iteration of their innermost common region?"""
        result = self._get_equiv_acc(item_a, item_b)
        if result in (EquivAcc.MAYBE, EquivAcc.DEFINITE) and _faults.is_active(
            _faults.FLIP_VERDICT
        ):
            result = EquivAcc.NONE
        _metrics.inc("hli.query.get_equiv_acc", result.value)
        return result

    def _get_equiv_acc(self, item_a: int, item_b: int) -> EquivAcc:
        self._check_fresh()
        rid = self.common_region(item_a, item_b)
        if rid is None:
            return EquivAcc.UNKNOWN
        ca = self.class_at(item_a, rid)
        cb = self.class_at(item_b, rid)
        if ca is None or cb is None:
            return EquivAcc.UNKNOWN
        region = self.entry.regions[rid]
        if ca == cb:
            cls = region.class_by_id(ca)
            if cls is None:
                return EquivAcc.UNKNOWN
            return (
                EquivAcc.DEFINITE
                if cls.equiv_type is EquivType.DEFINITE
                else EquivAcc.MAYBE
            )
        for alias in region.alias_entries:
            if ca in alias.class_ids and cb in alias.class_ids:
                return EquivAcc.MAYBE
        return EquivAcc.NONE

    # -- query 2: alias-only ---------------------------------------------------------

    def get_alias(self, item_a: int, item_b: int) -> EquivAcc:
        """Alias-table-only relation between the items' classes."""
        result = self._get_alias(item_a, item_b)
        _metrics.inc("hli.query.get_alias", result.value)
        return result

    def _get_alias(self, item_a: int, item_b: int) -> EquivAcc:
        self._check_fresh()
        rid = self.common_region(item_a, item_b)
        if rid is None:
            return EquivAcc.UNKNOWN
        ca = self.class_at(item_a, rid)
        cb = self.class_at(item_b, rid)
        if ca is None or cb is None:
            return EquivAcc.UNKNOWN
        if ca == cb:
            return EquivAcc.NONE  # same class is not "alias"
        region = self.entry.regions[rid]
        for alias in region.alias_entries:
            if ca in alias.class_ids and cb in alias.class_ids:
                return EquivAcc.MAYBE
        return EquivAcc.NONE

    # -- query 3: loop-carried dependences ----------------------------------------------

    def get_lcdd(
        self, item_a: int, item_b: int, region_id: Optional[int] = None
    ) -> Optional[list[LCDDEntry]]:
        """LCDD arcs between the classes of the two items at a loop region.

        ``region_id`` defaults to the innermost common *loop* region.
        Returns ``None`` if the items are not covered, an empty list if the
        loop carries no dependence between them.
        """
        out = self._get_lcdd(item_a, item_b, region_id)
        _metrics.inc(
            "hli.query.get_lcdd",
            "uncovered" if out is None else ("arcs" if out else "empty"),
        )
        return out

    def _get_lcdd(
        self, item_a: int, item_b: int, region_id: Optional[int] = None
    ) -> Optional[list[LCDDEntry]]:
        self._check_fresh()
        if region_id is None:
            rid = self.common_region(item_a, item_b)
            while rid is not None:
                region = self.entry.regions[rid]
                if region.region_type is RegionType.LOOP:
                    break
                rid = region.parent_id
            region_id = rid
        if region_id is None:
            return []
        ca = self.class_at(item_a, region_id)
        cb = self.class_at(item_b, region_id)
        if ca is None or cb is None:
            return None
        region = self.entry.regions[region_id]
        out = [
            e
            for e in region.lcdd_entries
            if {e.src_class, e.dst_class} == {ca, cb}
            or (ca == cb and e.src_class == ca and e.dst_class == ca)
        ]
        return out

    # -- query 4: call REF/MOD (Figure 4) ------------------------------------------------

    def get_call_acc(self, mem_item: int, call_item: int) -> CallAcc:
        """Effect of ``call_item`` on the location accessed by ``mem_item``."""
        result = self._get_call_acc(mem_item, call_item)
        _metrics.inc("hli.query.get_call_acc", result.value)
        return result

    def _get_call_acc(self, mem_item: int, call_item: int) -> CallAcc:
        self._check_fresh()
        call_region = self._call_region.get(call_item)
        mem_home = self._item_home.get(mem_item)
        if call_region is None or mem_home is None:
            return CallAcc.UNKNOWN
        # Innermost common region of the call and the memory item.
        anc_mem = set(self._ancestors(mem_home))
        call_path = self._ancestors(call_region)
        rid = next((r for r in call_path if r in anc_mem), None)
        if rid is None:
            return CallAcc.UNKNOWN
        region = self.entry.regions[rid]
        mem_class = self.class_at(mem_item, rid)
        if mem_class is None:
            return CallAcc.UNKNOWN
        if rid == call_region:
            entry = self._find_refmod(region, RefModKey.CALL_ITEM, call_item)
        else:
            # The call lives inside the child of `rid` along call_path.
            idx = call_path.index(rid)
            child = call_path[idx - 1]
            entry = self._find_refmod(region, RefModKey.SUBREGION, child)
        if entry is None:
            return CallAcc.UNKNOWN
        ref = entry.ref_all or mem_class in entry.ref_classes
        mod = entry.mod_all or mem_class in entry.mod_classes
        # An aliased class may also be touched: stay conservative.
        if not (ref and mod):
            for alias in region.alias_entries:
                if mem_class in alias.class_ids:
                    others = alias.class_ids - {mem_class}
                    ref = ref or any(c in entry.ref_classes for c in others)
                    mod = mod or any(c in entry.mod_classes for c in others)
        if ref and mod:
            return CallAcc.REFMOD
        if mod:
            return CallAcc.MOD
        if ref:
            return CallAcc.REF
        return CallAcc.NONE

    @staticmethod
    def _find_refmod(
        region: RegionEntry, kind: RefModKey, key_id: int
    ) -> Optional[RefModEntry]:
        for e in region.refmod_entries:
            if e.key_kind is kind and e.key_id == key_id:
                return e
        return None

    # -- query 5: region / structure info ---------------------------------------------------

    def get_region_info(self, item_id: int) -> Optional[RegionInfo]:
        """Structural hints about the region holding ``item_id``."""
        info = self._get_region_info(item_id)
        _metrics.inc(
            "hli.query.get_region_info", "unknown" if info is None else "found"
        )
        return info

    def _get_region_info(self, item_id: int) -> Optional[RegionInfo]:
        self._check_fresh()
        rid = self._item_home.get(item_id)
        if rid is None:
            rid = self._call_region.get(item_id)
        if rid is None:
            return None
        region = self.entry.regions[rid]
        return RegionInfo(
            region_id=rid,
            region_type=region.region_type,
            parent_id=region.parent_id,
            depth=self._depth[rid],
            loop_step=region.loop_step,
            loop_trip=region.loop_trip,
        )
