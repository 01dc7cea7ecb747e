"""Equivalent access class construction for one region (Section 2.2.1).

The partition rules implemented here follow the paper's construction
(Section 3.1.2) and reproduce the worked example of Figure 2:

* immediate items with *identical* symbolic references form one
  (definite) proto-class — multiple references to the same location in
  one iteration collapse immediately;
* proto-classes whose references are proven to touch the same location
  within one iteration (the "SUIF test returns zero distance" rule) are
  merged and stay definite;
* classes lifted from sub-regions that merely *may* overlap are merged
  into a single ``maybe`` class — the paper's size-reduction rule — while
  immediate items are kept separate from maybe-overlapping classes and
  related through the alias table instead (this is exactly the
  ``b[0]`` vs ``b[0..9]`` situation in Figure 2);
* classes that may overlap but are not merged produce alias entries;
* for loop regions, surviving class pairs are tested for loop-carried
  dependences and recorded in the LCDD table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..frontend.symbols import Symbol
from ..hli.tables import DepType, EquivType, LCDDEntry
from .alias import PointsToResult
from .depend import DepResult, MemberFacts, MemberRef, RegionFacts
from .items import AccessKind, MemoryItem
from .regions import Region, RegionKind


@dataclass
class ClassInfo:
    """Builder-side view of one equivalence class."""

    class_id: int
    region: Region
    members: list[MemberRef] = field(default_factory=list)
    member_items: list[int] = field(default_factory=list)
    member_classes: list[int] = field(default_factory=list)
    equiv: EquivType = EquivType.DEFINITE
    base: Optional[Symbol] = None
    is_deref: bool = False
    has_store: bool = False
    label: str = ""
    #: True when this ClassInfo was lifted from a sub-region (vs formed
    #: from items immediately in the current region).
    lifted: bool = False


@dataclass
class RegionClassResult:
    """Classes plus alias/LCDD facts computed for one region."""

    classes: list[ClassInfo]
    alias_pairs: list[tuple[int, int]]
    lcdd: list[LCDDEntry]


@dataclass(frozen=True)
class PartitionOptions:
    """Ablation knobs for class construction (see DESIGN.md §5).

    ``merge_zero_distance`` — the paper's Section 3.1.2 rule: classes whose
    references definitely touch the same location in one iteration merge.
    ``merge_maybe_lifted`` — the size-reduction rule: maybe-overlapping
    *lifted* classes merge into one maybe class.
    Both default to the paper's behaviour; disabling them keeps classes
    apart (precision unchanged — alias entries compensate — but the HLI
    grows).
    """

    merge_zero_distance: bool = True
    merge_maybe_lifted: bool = True


def _group_key(c: ClassInfo) -> tuple:
    base_uid = c.base.uid if c.base is not None else -1
    return (base_uid, c.is_deref)


def _pair_relation(
    overlap: Callable[[MemberFacts, MemberFacts, Region], DepResult],
    fu: list[MemberFacts],
    fv: list[MemberFacts],
    region: Region,
) -> DepResult:
    """Combined overlap relation over all member cross pairs of two units."""
    if len(fu) == 1 and len(fv) == 1:
        return overlap(fu[0], fv[0], region)
    worst = DepResult.NONE
    all_def = True
    for x in fu:
        for y in fv:
            rel = overlap(x, y, region)
            if rel is not DepResult.DEF:
                all_def = False
            if rel is DepResult.MAYBE:
                worst = DepResult.MAYBE
            elif rel is DepResult.DEF and worst is DepResult.NONE:
                worst = DepResult.DEF
    if worst is DepResult.DEF and not all_def:
        return DepResult.MAYBE
    return worst


class RegionPartitioner:
    """Build the final classes of one region from items + lifted classes.

    Each overlap question between two members is answered once, in
    :meth:`_merge`: it keeps every unit-pair relation, and the alias
    table reads a class pair's relation off the relations of its units.
    ``facts`` is the unit build's :class:`RegionFacts`; each member is
    split at this region once and its split serves the merge, the alias
    table and the LCDD table.
    """

    def __init__(
        self,
        region: Region,
        items: list[MemoryItem],
        lifted: list[ClassInfo],
        pts: PointsToResult,
        next_id: Callable[[], int],
        facts: RegionFacts,
        options: PartitionOptions | None = None,
    ) -> None:
        self.region = region
        self.items = [
            it for it in items if it.kind is not AccessKind.CALL and it.ref is not None
        ]
        self.lifted = lifted
        self.pts = pts
        self.next_id = next_id
        self.facts = facts
        self.options = options or PartitionOptions()
        #: the units _merge partitions (proto classes, then lifted classes)
        self._units: list[ClassInfo] = []
        #: overlap relation per merge-candidate unit pair (i < j)
        self._rel: dict[tuple[int, int], DepResult] = {}
        #: unit indices per final class id
        self._parts: dict[int, list[int]] = {}
        #: member splits at this region, per unit index and per class id
        self._unit_facts: dict[int, list[MemberFacts]] = {}
        self._class_facts: dict[int, list[MemberFacts]] = {}

    def run(self) -> RegionClassResult:
        units = self._proto_classes() + [self._relabel(c) for c in self.lifted]
        self._units = units
        classes = self._merge(units)
        alias_pairs = self._alias_pairs(classes)
        lcdd = self._lcdd(classes) if self.region.kind is RegionKind.LOOP else []
        return RegionClassResult(classes=classes, alias_pairs=alias_pairs, lcdd=lcdd)

    def _facts_of_unit(self, idx: int) -> list[MemberFacts]:
        """One split per distinct member of unit ``idx``.

        Members that share a SymbolicRef object come from one proto class,
        so they ask the same questions: one split stands for all of them,
        and its ``store`` says whether any of them stores.
        """
        got = self._unit_facts.get(idx)
        if got is None:
            by_ref: dict[int, MemberFacts] = {}
            for m in self._units[idx].members:
                f = by_ref.get(id(m.ref))
                if f is None:
                    by_ref[id(m.ref)] = self.facts.member(m, self.region)
                elif m.is_store:
                    f.store = True
            got = self._unit_facts[idx] = list(by_ref.values())
        return got

    def _facts_of_class(self, c: ClassInfo) -> list[MemberFacts]:
        got = self._class_facts.get(c.class_id)
        if got is None:
            got = [f for idx in self._parts[c.class_id] for f in self._facts_of_unit(idx)]
            self._class_facts[c.class_id] = got
        return got

    # -- step 1: proto classes from immediate items ------------------------

    def _proto_classes(self) -> list[ClassInfo]:
        groups: dict[tuple, ClassInfo] = {}
        order: list[ClassInfo] = []
        for it in self.items:
            assert it.ref is not None
            # Epochs are part of identity: two syntactically equal
            # subscripts straddling an assignment to a subscript symbol
            # denote different locations.
            key = (it.ref.key(), it.epochs)
            info = groups.get(key)
            if info is None:
                info = ClassInfo(
                    class_id=self.next_id(),
                    region=self.region,
                    base=it.ref.base,
                    is_deref=it.ref.is_deref,
                    label=str(it.ref),
                )
                groups[key] = info
                order.append(info)
            info.member_items.append(it.item_id)
            # The members of one proto class share its first item's
            # SymbolicRef object: same reference, epochs and home, so
            # every pair test treats them alike (see _facts_of_unit).
            info.members.append(
                MemberRef(
                    ref=info.members[0].ref if info.members else it.ref,
                    is_store=it.kind is AccessKind.STORE,
                    home=self.region,
                    epochs=it.epochs,
                )
            )
            info.has_store = info.has_store or it.kind is AccessKind.STORE
        return order

    def _relabel(self, c: ClassInfo) -> ClassInfo:
        """Wrap a sub-region class as a unit at this region."""
        return ClassInfo(
            class_id=c.class_id,  # placeholder; real id given if it survives alone
            region=self.region,
            members=list(c.members),
            member_items=[],
            member_classes=[c.class_id],
            equiv=c.equiv,
            base=c.base,
            is_deref=c.is_deref,
            has_store=c.has_store,
            label=c.label,
            lifted=True,
        )

    # -- step 2: merging ------------------------------------------------------

    def _merge(self, units: list[ClassInfo]) -> list[ClassInfo]:
        n = len(units)
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri

        maybe_merged: set[int] = set()
        # Only same-base, same-shape units are merge candidates.
        by_group: dict[tuple, list[int]] = {}
        for idx, u in enumerate(units):
            if u.base is not None:
                by_group.setdefault(_group_key(u), []).append(idx)
        overlap = self.facts.overlap
        rels = self._rel
        zero_distance = self.options.merge_zero_distance
        maybe_lifted = self.options.merge_maybe_lifted
        for group in by_group.values():
            facts = [self._facts_of_unit(k) for k in group] if len(group) > 1 else []
            for ai in range(len(group)):
                i = group[ai]
                lifted_i = units[i].lifted
                for bi in range(ai + 1, len(group)):
                    j = group[bi]
                    rel = _pair_relation(overlap, facts[ai], facts[bi], self.region)
                    rels[(i, j)] = rel
                    if rel is DepResult.DEF and zero_distance:
                        union(i, j)
                    elif (
                        rel is DepResult.MAYBE
                        and lifted_i
                        and units[j].lifted
                        and maybe_lifted
                    ):
                        # Size-reduction rule: merge maybe-overlapping
                        # lifted classes into one maybe class.
                        union(i, j)
                        maybe_merged.add(find(i))
        # Build merged classes.
        comps: dict[int, list[int]] = {}
        for idx in range(n):
            comps.setdefault(find(idx), []).append(idx)
        out: list[ClassInfo] = []
        for root, idxs in comps.items():
            if len(idxs) == 1:
                # A unit that merged with nothing is its own final class
                # (it already holds this region, its members and its
                # qualifier); only its id is new.
                merged = units[idxs[0]]
                merged.class_id = self.next_id()
                self._parts[merged.class_id] = idxs
                out.append(merged)
                continue
            members = [units[k] for k in idxs]
            merged = ClassInfo(
                class_id=self.next_id(),
                region=self.region,
                base=members[0].base,
                is_deref=members[0].is_deref,
                lifted=all(m.lifted for m in members),
            )
            for m in members:
                merged.members.extend(m.members)
                merged.member_items.extend(m.member_items)
                merged.member_classes.extend(m.member_classes)
                merged.has_store = merged.has_store or m.has_store
                if m.equiv is EquivType.MAYBE:
                    merged.equiv = EquivType.MAYBE
            if find(idxs[0]) in maybe_merged:
                merged.equiv = EquivType.MAYBE
            merged.label = self._label(merged, members)
            self._parts[merged.class_id] = idxs
            out.append(merged)
        return out

    def _label(self, merged: ClassInfo, parts: list[ClassInfo]) -> str:
        base = merged.base.name if merged.base else "?"
        return f"{base}[*]" if any("[" in p.label for p in parts) else base

    # -- step 3: alias entries ---------------------------------------------------

    def _alias_pairs(self, classes: list[ClassInfo]) -> list[tuple[int, int]]:
        pairs: list[tuple[int, int]] = []
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                u, v = classes[i], classes[j]
                if self._may_alias_classes(u, v):
                    pairs.append((u.class_id, v.class_id))
        return pairs

    def _may_alias_classes(self, u: ClassInfo, v: ClassInfo) -> bool:
        # Unknown-base classes alias everything.
        if u.base is None or v.base is None:
            return True
        if u.is_deref and v.is_deref:
            return bool(self.pts.targets(u.base) & self.pts.targets(v.base))
        if u.is_deref != v.is_deref:
            deref, plain = (u, v) if u.is_deref else (v, u)
            assert deref.base is not None and plain.base is not None
            return plain.base in self.pts.targets(deref.base)
        if u.base is not v.base:
            return False
        # Same base, both direct: alias iff some member pair may overlap
        # in-iteration.  The units of two such classes share a merge
        # group, so _merge has related every unit pair already.
        rel = self._rel
        return any(
            rel[(a, b) if a < b else (b, a)] is not DepResult.NONE
            for a in self._parts[u.class_id]
            for b in self._parts[v.class_id]
        )

    # -- step 4: loop-carried dependences -------------------------------------

    def _lcdd(self, classes: list[ClassInfo]) -> list[LCDDEntry]:
        entries: list[LCDDEntry] = []
        seen: set[tuple[int, int, Optional[int]]] = set()

        def add(src: int, dst: int, dep: DepType, dist: Optional[int]) -> None:
            key = (src, dst, dist)
            if key not in seen:
                seen.add(key)
                entries.append(
                    LCDDEntry(src_class=src, dst_class=dst, dep_type=dep, distance=dist)
                )

        for i in range(len(classes)):
            for j in range(i, len(classes)):
                u, v = classes[i], classes[j]
                if not (u.has_store or v.has_store):
                    continue
                if u.base is None or v.base is None or u.is_deref or v.is_deref:
                    if self._may_alias_classes(u, v) or u is v:
                        add(u.class_id, v.class_id, DepType.MAYBE, None)
                    continue
                if u.base is not v.base:
                    continue
                self._lcdd_pair(u, v, add)
        return entries

    def _lcdd_pair(self, u: ClassInfo, v: ClassInfo, add) -> None:
        got_maybe = False
        distances: set[tuple[int, bool]] = set()
        any_dist = False
        loop_carried = self.facts.loop_carried
        fu = self._facts_of_class(u)
        fv = self._facts_of_class(v)
        for a, x in enumerate(fu):
            # Against itself, a class asks (x, y) only: (y, x) is its
            # mirror (RegionFacts.loop_carried), whose flipped direction
            # names the same (u, u) entry.
            for y in fv[a:] if u is v else fv:
                if not (x.store or y.store):
                    continue
                res = loop_carried(x, y, self.region)
                if res.result is DepResult.NONE:
                    continue
                if res.result is DepResult.MAYBE or res.distance is None:
                    got_maybe = True
                elif res.any_distance:
                    any_dist = True
                else:
                    distances.add((res.distance, res.src_first))
        for dist, src_first in sorted(distances):
            if src_first:
                add(u.class_id, v.class_id, DepType.DEFINITE, dist)
            else:
                add(v.class_id, u.class_id, DepType.DEFINITE, dist)
        if any_dist:
            add(u.class_id, v.class_id, DepType.DEFINITE, 1)
        if got_maybe:
            add(u.class_id, v.class_id, DepType.MAYBE, None)
