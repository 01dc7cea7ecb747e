"""HLI maintenance functions (paper Section 3.2.3).

As the back-end optimizes, memory references are deleted (CSE), moved
(loop-invariant code motion), or duplicated (loop unrolling).  These
functions keep the HLI tables consistent with such changes:

* :func:`delete_item`   — CSE removed a reference;
* :func:`generate_item` — the back-end created a reference with no
  front-end counterpart;
* :func:`inherit_item`  — a new reference accesses the same location as
  an existing item (joins its class);
* :func:`move_item_to_parent` — LICM hoisted a reference out of a loop;
* :func:`unroll_region` — the Figure 6 transformation: clone each class
  per unrolled copy, convert intra-unrolled-iteration dependences into
  class merges/aliases, and rewrite LCDD distances.

All functions mutate the :class:`~repro.hli.tables.HLIEntry` in place
and bump ``entry.generation``; build a fresh
:class:`~repro.hli.query.HLIQuery` (or call ``query.refresh()``)
afterwards — a query constructed against an older generation raises
:class:`~repro.hli.query.StaleQueryError` instead of silently answering
from stale indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..obs import metrics as _metrics
from . import faults as _faults
from .tables import (
    AliasEntry,
    DepType,
    EqClass,
    HLIEntry,
    ItemType,
    LCDDEntry,
    RefModEntry,
    RefModKey,
    RegionEntry,
)


class MaintenanceError(Exception):
    """Raised when an update cannot be applied consistently."""


def _bump(entry: HLIEntry, op: str) -> None:
    """Record that the entry's tables changed (invalidates live queries)."""
    if not _faults.is_active(_faults.STALE_GENERATION):
        entry.generation += 1
    _metrics.inc("hli.maintenance", op)


def next_free_id(entry: HLIEntry) -> int:
    """Smallest ID above every item and class ID in the entry."""
    best = 0
    for le in entry.line_table.entries.values():
        for iid, _ in le.items:
            best = max(best, iid)
    for region in entry.regions.values():
        for c in region.eq_classes:
            best = max(best, c.class_id)
            for iid in c.member_items:
                best = max(best, iid)
    return best + 1


def find_item_class(entry: HLIEntry, item_id: int) -> Optional[tuple[RegionEntry, EqClass]]:
    """Region and class whose ``member_items`` lists ``item_id``."""
    for region in entry.regions.values():
        for c in region.eq_classes:
            if item_id in c.member_items:
                return region, c
    return None


# ---------------------------------------------------------------------------
# delete / generate / inherit / move
# ---------------------------------------------------------------------------


def delete_item(entry: HLIEntry, item_id: int) -> None:
    """Remove an item the back-end deleted (e.g. CSE removed the load).

    Empties cascade: a class left with no members is removed from its
    region and from every alias/LCDD/REF-MOD entry and parent class that
    referenced it.
    """
    if _faults.is_active(_faults.DROP_MAINTENANCE):
        return
    _bump(entry, "delete_item")
    for le in entry.line_table.entries.values():
        le.items = [(iid, ty) for iid, ty in le.items if iid != item_id]
    found = find_item_class(entry, item_id)
    if found is None:
        return
    region, cls = found
    cls.member_items.remove(item_id)
    if not cls.member_items and not cls.member_classes:
        _remove_class(entry, region, cls.class_id)


def _remove_class(entry: HLIEntry, region: RegionEntry, class_id: int) -> None:
    region.eq_classes = [c for c in region.eq_classes if c.class_id != class_id]
    region.alias_entries = [
        a for a in region.alias_entries if class_id not in a.class_ids
    ]
    region.lcdd_entries = [
        d
        for d in region.lcdd_entries
        if d.src_class != class_id and d.dst_class != class_id
    ]
    for m in region.refmod_entries:
        m.ref_classes = [c for c in m.ref_classes if c != class_id]
        m.mod_classes = [c for c in m.mod_classes if c != class_id]
    # cascade into the parent region's class that contained this one
    if region.parent_id is not None:
        parent = entry.regions.get(region.parent_id)
        if parent is not None:
            for c in list(parent.eq_classes):
                if class_id in c.member_classes:
                    c.member_classes.remove(class_id)
                    if not c.member_items and not c.member_classes:
                        _remove_class(entry, parent, c.class_id)


def generate_item(
    entry: HLIEntry,
    line: int,
    item_type: ItemType,
    region_id: int,
    item_id: Optional[int] = None,
) -> int:
    """Create a back-end-originated item in its own fresh class."""
    _bump(entry, "generate_item")
    iid = item_id if item_id is not None else next_free_id(entry)
    entry.line_table.add_item(line, iid, item_type)
    region = entry.regions[region_id]
    cls = EqClass(class_id=next_free_id(entry), member_items=[iid])
    region.eq_classes.append(cls)
    return iid


def inherit_item(entry: HLIEntry, new_item: int, old_item: int, line: int,
                 item_type: ItemType) -> None:
    """Register ``new_item`` as accessing the same location as ``old_item``.

    The new item joins the old item's equivalence class, inheriting every
    alias/LCDD/REF-MOD property at once.
    """
    found = find_item_class(entry, old_item)
    if found is None:
        raise MaintenanceError(f"item {old_item} not found")
    _bump(entry, "inherit_item")
    _, cls = found
    entry.line_table.add_item(line, new_item, item_type)
    cls.member_items.append(new_item)


def move_item_to_parent(entry: HLIEntry, item_id: int) -> None:
    """LICM: re-home an item from a loop region into the parent region.

    The item leaves its class and joins the parent-region class that
    lifted its old class (keeping location facts intact one level up).
    """
    found = find_item_class(entry, item_id)
    if found is None:
        raise MaintenanceError(f"item {item_id} not found")
    region, cls = found
    if region.parent_id is None:
        return
    parent = entry.regions[region.parent_id]
    lifted = None
    for c in parent.eq_classes:
        if cls.class_id in c.member_classes:
            lifted = c
            break
    if lifted is None:
        raise MaintenanceError(
            f"no parent class lifts class {cls.class_id} of region {region.region_id}"
        )
    _bump(entry, "move_item_to_parent")
    cls.member_items.remove(item_id)
    lifted.member_items.append(item_id)
    if not cls.member_items and not cls.member_classes:
        _remove_class(entry, region, cls.class_id)


# ---------------------------------------------------------------------------
# Loop unrolling (Figure 6)
# ---------------------------------------------------------------------------


@dataclass
class UnrollMaintenance:
    """Outcome of one region unrolling: old→new item/class id maps."""

    region_id: int
    factor: int
    #: (old item id, copy index>=1) -> new item id  (copy 0 keeps old ids)
    item_copy: dict[tuple[int, int], int] = field(default_factory=dict)
    #: (old class id, copy index) -> class id of that copy
    class_copy: dict[tuple[int, int], int] = field(default_factory=dict)


def unroll_region(entry: HLIEntry, region_id: int, factor: int) -> UnrollMaintenance:
    """Rewrite one loop region's HLI for unrolling by ``factor``.

    Implements the paper's Figure 6: every class is cloned per copy,
    definite LCDD arcs with distance ``d`` become *merges* between copy
    ``k`` and copy ``k+d`` (the accesses now fall in the same unrolled
    iteration), arcs that cross the new iteration boundary get distance
    ``(k+d) div factor``, and the loop's recorded trip count shrinks.
    """
    if factor < 2:
        raise MaintenanceError("unroll factor must be >= 2")
    _bump(entry, "unroll_region")
    region = entry.regions[region_id]
    result = UnrollMaintenance(region_id=region_id, factor=factor)
    next_id = next_free_id(entry)

    def fresh() -> int:
        nonlocal next_id
        out = next_id
        next_id += 1
        return out

    old_classes = list(region.eq_classes)
    old_lcdd = list(region.lcdd_entries)
    old_alias = list(region.alias_entries)

    # 1. clone items and classes per copy (copy 0 keeps the originals).
    item_lines: dict[int, tuple[int, ItemType]] = {}
    for le in entry.line_table.entries.values():
        for iid, ty in le.items:
            item_lines[iid] = (le.line, ty)
    for c in old_classes:
        result.class_copy[(c.class_id, 0)] = c.class_id
        for k in range(1, factor):
            new_items = []
            for iid in c.member_items:
                nid = fresh()
                result.item_copy[(iid, k)] = nid
                new_items.append(nid)
                line, ty = item_lines.get(iid, (0, ItemType.LOAD))
                entry.line_table.add_item(line, nid, ty)
            clone = EqClass(
                class_id=fresh(),
                equiv_type=c.equiv_type,
                member_items=new_items,
                # clones carry no sub-classes: only innermost (sub-loop-free)
                # regions are unrolled by the back-end pass
                member_classes=[],
                label=f"{c.label}@u{k}" if c.label else "",
            )
            region.eq_classes.append(clone)
            result.class_copy[(c.class_id, k)] = clone.class_id
            # keep outer-region queries precise: the clone joins whatever
            # parent class lifted the original
            if region.parent_id is not None:
                parent = entry.regions.get(region.parent_id)
                if parent is not None:
                    for pc in parent.eq_classes:
                        if c.class_id in pc.member_classes:
                            pc.member_classes.append(clone.class_id)
                            break

    def copy_of(cid: int, k: int) -> int:
        return result.class_copy.get((cid, k), cid)

    # 2. rewrite the LCDD table and derive intra-iteration facts.
    new_lcdd: list[LCDDEntry] = []
    new_alias: list[AliasEntry] = list(old_alias)
    merges: list[tuple[int, int, DepType]] = []
    for d in old_lcdd:
        if d.distance is None:
            # unknown distance: every copy pair may conflict
            for k1 in range(factor):
                for k2 in range(factor):
                    a, b = copy_of(d.src_class, k1), copy_of(d.dst_class, k2)
                    if a != b:
                        new_alias.append(AliasEntry(class_ids=frozenset((a, b))))
            new_lcdd.append(
                LCDDEntry(
                    src_class=copy_of(d.src_class, 0),
                    dst_class=copy_of(d.dst_class, 0),
                    dep_type=DepType.MAYBE,
                    distance=None,
                )
            )
            continue
        for k in range(factor):
            target = k + d.distance
            if target < factor:
                # Falls inside one unrolled iteration: same location now.
                merges.append(
                    (copy_of(d.src_class, k), copy_of(d.dst_class, target), d.dep_type)
                )
            else:
                new_lcdd.append(
                    LCDDEntry(
                        src_class=copy_of(d.src_class, k),
                        dst_class=copy_of(d.dst_class, target % factor),
                        dep_type=d.dep_type,
                        distance=target // factor,
                    )
                )
    # alias entries apply between all copies of the aliased classes
    for a in old_alias:
        ids = sorted(a.class_ids)
        for k in range(1, factor):
            new_alias.append(
                AliasEntry(class_ids=frozenset(copy_of(c, k) for c in ids))
            )
    # definite same-location pairs become alias facts (conservative merge:
    # we alias rather than fuse classes to keep the id maps simple)
    for a, b, dep in merges:
        if a != b:
            new_alias.append(AliasEntry(class_ids=frozenset((a, b))))
    # 3. REF/MOD: a cloned class denotes the same source locations as its
    # original, so every copy inherits membership in the entry's ref/mod
    # sets; call items that were themselves cloned get a mirrored entry.
    cloned_refmod: list[RefModEntry] = []
    for m in region.refmod_entries:
        for cid in list(m.ref_classes):
            for k in range(1, factor):
                copy = copy_of(cid, k)
                if copy != cid and copy not in m.ref_classes:
                    m.ref_classes.append(copy)
        for cid in list(m.mod_classes):
            for k in range(1, factor):
                copy = copy_of(cid, k)
                if copy != cid and copy not in m.mod_classes:
                    m.mod_classes.append(copy)
        if m.key_kind is RefModKey.CALL_ITEM:
            for k in range(1, factor):
                nid = result.item_copy.get((m.key_id, k))
                if nid is not None:
                    cloned_refmod.append(
                        RefModEntry(
                            key_kind=RefModKey.CALL_ITEM,
                            key_id=nid,
                            ref_all=m.ref_all,
                            mod_all=m.mod_all,
                            ref_classes=list(m.ref_classes),
                            mod_classes=list(m.mod_classes),
                        )
                    )
    region.refmod_entries.extend(cloned_refmod)
    region.lcdd_entries = new_lcdd
    region.alias_entries = _dedup_alias(new_alias)
    if region.loop_trip > 0:
        region.loop_trip = region.loop_trip // factor
    region.loop_step *= factor
    return result


def _dedup_alias(entries: list[AliasEntry]) -> list[AliasEntry]:
    seen: set[frozenset[int]] = set()
    out: list[AliasEntry] = []
    for e in entries:
        if e.class_ids not in seen and len(e.class_ids) > 1:
            seen.add(e.class_ids)
            out.append(e)
    return out
