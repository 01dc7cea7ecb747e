"""Array data-dependence tests (the front-end's analytical core).

Implements the classic battery the paper's front-end relies on:

* **ZIV** (zero index variable) — constant-vs-constant subscripts;
* **strong SIV** — equal induction coefficients, exact integer distance;
* **weak/MIV fallback** — GCD test plus Banerjee-style bound checking
  when loop bounds are constant.

Two public entry points mirror how the HLI tables are built
(Section 3.1.2):

* :func:`intra_iteration_relation` — do two references touch the same
  location *within one iteration*?  Feeds zero-distance merging and the
  alias table.
* :func:`loop_carried_dependence` — is there a dependence *across*
  iterations of a given loop, and at what distance?  Feeds the LCDD table.

All tests are conservative: they return ``MAYBE`` whenever subscripts are
non-affine, contain symbols modified inside the loop, or bounds are
unknown.  Property tests check soundness against brute-force enumeration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import AbstractSet, Optional

from ..frontend.symbols import Symbol
from .items import SymbolicRef
from .regions import Region, RegionKind
from .subscripts import Affine


class DepResult(enum.Enum):
    """Three-valued dependence verdict."""

    NONE = "none"  # provably independent
    DEF = "definite"  # provably dependent
    MAYBE = "maybe"  # cannot prove either way

    def __bool__(self) -> bool:  # truthy = "must assume dependence"
        return self is not DepResult.NONE


@dataclass(frozen=True)
class LoopCarried:
    """Result of a loop-carried dependence test.

    ``distance`` is in iterations, always positive, with the direction
    normalized '>' (earlier to later iteration, paper Section 2.2.3):
    ``src_first`` tells whether the *first* argument is the source (the
    earlier-iteration access).  ``distance`` is ``None`` for MAYBE results
    with unknown distance.
    """

    result: DepResult
    distance: Optional[int] = None
    src_first: bool = True
    #: ZIV-equal dimensions depend at *every* distance; such results
    #: constrain nothing when combining dimensions.
    any_distance: bool = False


NO_DEP = LoopCarried(DepResult.NONE)
_MAYBE = LoopCarried(DepResult.MAYBE)
#: dependent at every distance (same location every iteration)
_EVERY = LoopCarried(DepResult.DEF, distance=1, any_distance=True)


# ---------------------------------------------------------------------------
# Invariance helpers
# ---------------------------------------------------------------------------


def _form_symbols_ok(form: Affine, loop: Region, extra_vars: AbstractSet[Symbol]) -> bool:
    """True if every symbol in ``form`` is either an allowed induction
    variable or invariant inside ``loop``."""
    for sym in form.symbols():
        if sym in extra_vars:
            continue
        if sym in loop.modified_scalars:
            return False
    return True


def _enclosing_induction_vars(region: Region) -> set[Symbol]:
    out: set[Symbol] = set()
    for r in region.enclosing_loops():
        if r.loop is not None and r.loop.var is not None:
            out.add(r.loop.var)
    return out


# ---------------------------------------------------------------------------
# Single-dimension tests
# ---------------------------------------------------------------------------


def _dim_loop_carried(
    d1: Optional["_DimFacts"],
    d2: Optional["_DimFacts"],
    loop: Region,
    rng: Optional[range],
) -> LoopCarried:
    """Loop-carried test for one subscript dimension w.r.t. ``loop``.

    Both dimensions are split at ``loop`` and use none of their free
    variables, so ``risky`` lists exactly the symbols that are neither
    induction variables of the enclosing loops nor invariant in ``loop``.
    ``rng`` is the loop's iteration range (``None`` when not constant).
    Returns the per-dimension verdict; ``distance=None`` with DEF means
    "dependent at every distance" (ZIV-equal case).
    """
    info = loop.loop
    if d1 is None or d2 is None:
        return _MAYBE
    if info is None or not info.is_canonical:
        # Unrecognized loop: cannot reason about iteration spacing (even
        # a constant offset could collide across its iterations).
        return _MAYBE
    var = info.var
    assert var is not None and info.step is not None
    step = info.step
    if step == 0:
        return _MAYBE

    if d1.risky or d2.risky:
        return _MAYBE

    f1, f2 = d1.form, d2.form
    a1, a2 = f1.coeff(var), f2.coeff(var)
    # Outer-loop induction variables take the same value in both accesses
    # (we test one loop at a time with '=' directions outside), so they
    # cancel only if their coefficients match: the remainders r1, r2
    # (``var`` dropped) must differ by a constant, else the answer is
    # unknown.  Both forms are normalized, so that is equal terms.
    if [t for t in f1.terms if t[0] is not var] != [t for t in f2.terms if t[0] is not var]:
        return _MAYBE
    c = f1.const - f2.const  # r1 - r2

    # Solve a1*i(k) + r1 = a2*i(k+d) + r2, i(k) = L0 + step*k.
    if a1 == 0 and a2 == 0:
        # ZIV: same location every iteration iff c == 0.
        if c == 0:
            return _EVERY
        return NO_DEP
    if a1 == a2:
        # Strong SIV: a*(i1 - i2) = -c  ->  i2 - i1 = c / a.
        a = a1
        if c % a != 0:
            return NO_DEP
        delta_i = c // a  # i2 - i1
        if delta_i % step != 0:
            return NO_DEP
        d = delta_i // step  # iterations from ref1 to ref2
        if d == 0:
            return NO_DEP  # loop-independent, not carried
        if rng is not None and abs(d) >= len(rng):
            return NO_DEP
        if d > 0:
            return LoopCarried(DepResult.DEF, distance=d, src_first=True)
        return LoopCarried(DepResult.DEF, distance=-d, src_first=False)

    # Weak SIV / general: GCD test on a1*i1 - a2*i2 = -c.
    g = math.gcd(abs(a1), abs(a2))
    if g and c % g != 0:
        return NO_DEP
    # Banerjee-style bounds when the iteration space is fully known.
    if rng is not None:
        if len(rng) == 0:
            return NO_DEP
        lo_i, hi_i = min(rng[0], rng[-1]), max(rng[0], rng[-1])

        def bounds(coeff: int) -> tuple[int, int]:
            lo = coeff * (lo_i if coeff >= 0 else hi_i)
            hi = coeff * (hi_i if coeff >= 0 else lo_i)
            return lo, hi

        lo1, hi1 = bounds(a1)
        lo2, hi2 = bounds(a2)
        # a1*i1 - a2*i2 ranges over [lo1 - hi2, hi1 - lo2]
        if not (lo1 - hi2 <= -c <= hi1 - lo2):
            return NO_DEP
    return _MAYBE


def _dim_intra_iteration(
    f1: Optional[Affine],
    f2: Optional[Affine],
    region: Region,
    stable: Optional[bool] = None,
) -> DepResult:
    """Same-location test for one dimension with all loop variables fixed.

    ``stable`` asserts that every non-induction symbol holds the *same
    value* at both references (proven by invariance or by equal
    modification epochs).  Without stability no definite conclusion —
    equal or disjoint — is sound, because the symbol may change between
    the two accesses within one iteration.
    """
    if f1 is None or f2 is None:
        return DepResult.MAYBE
    if stable is None:
        allowed = _enclosing_induction_vars(region)
        stable = _form_symbols_ok(f1, region, allowed) and _form_symbols_ok(
            f2, region, allowed
        )
    diff = f1 - f2
    if diff.is_constant:
        if not stable:
            return DepResult.MAYBE
        return DepResult.DEF if diff.const == 0 else DepResult.NONE
    # Symbol terms remain: e.g. b[0] vs b[j].  If the leftover equation
    # has a solution inside known bounds the locations may coincide.  The
    # region's own induction variable is stable by definition (it only
    # steps between iterations).
    if stable and region.kind is RegionKind.LOOP and region.loop is not None:
        info = region.loop
        if (
            info.var is not None
            and set(diff.symbols()) == {info.var}
            and info.iteration_range() is not None
        ):
            a = diff.coeff(info.var)
            c = diff.const
            rng = info.iteration_range()
            assert rng is not None
            # a*i + c == 0 for some i in range?
            if a != 0 and (-c) % a == 0 and (-c) // a in rng:
                return DepResult.MAYBE  # coincide at one iteration
            if a != 0:
                return DepResult.NONE
    return DepResult.MAYBE


# ---------------------------------------------------------------------------
# Reference-level tests
# ---------------------------------------------------------------------------


def _comparable(ref1: SymbolicRef, ref2: SymbolicRef) -> bool:
    """Can the affine machinery say anything about this pair?

    Requires the same non-pointer base symbol and matching dimensionality;
    everything else is the alias analysis' problem.
    """
    if ref1.base is None or ref2.base is None:
        return False
    if ref1.base is not ref2.base:
        return False
    if ref1.is_deref or ref2.is_deref:
        return False
    if len(ref1.subscripts) != len(ref2.subscripts):
        return False
    if ref1.field_name != ref2.field_name:
        return False
    return True


def loop_carried_dependence(
    ref1: SymbolicRef, ref2: SymbolicRef, loop: Region
) -> LoopCarried:
    """Loop-carried dependence between two same-base array/scalar refs.

    Conservative MAYBE for anything the affine machinery cannot handle.
    Scalars (no subscripts) on the same base are dependent at distance 1.
    """
    facts = RegionFacts()
    x = facts.member(MemberRef(ref=ref1, is_store=False, home=loop), loop)
    y = facts.member(MemberRef(ref=ref2, is_store=False, home=loop), loop)
    return _loop_carried_dims(x, y, loop, facts.iteration_range(loop))


def _loop_carried_dims(
    x: "MemberFacts", y: "MemberFacts", loop: Region, rng: Optional[range]
) -> LoopCarried:
    """:func:`loop_carried_dependence` over members whose subscripts use
    none of their free variables; ``rng`` is the loop's iteration range."""
    if not _comparable(x.ref, y.ref):
        return _MAYBE
    if not x.ref.subscripts:
        return _EVERY
    per_dim = [_dim_loop_carried(d1, d2, loop, rng) for d1, d2 in zip(x.dims, y.dims)]
    if any(d.result is DepResult.NONE for d in per_dim):
        return NO_DEP
    if all(d.result is DepResult.DEF for d in per_dim):
        # Combine distances: ZIV-equal dims are wildcards (dependent at
        # every distance); constrained dims must agree on one distance.
        fixed = [(d.distance, d.src_first) for d in per_dim if not d.any_distance]
        if not fixed:
            return _EVERY
        first = fixed[0]
        if all(f == first for f in fixed[1:]):
            return LoopCarried(DepResult.DEF, distance=first[0], src_first=first[1])
        return NO_DEP  # inconsistent required distances
    return _MAYBE


def intra_iteration_relation(
    ref1: SymbolicRef, ref2: SymbolicRef, region: Region
) -> DepResult:
    """Do the refs touch the same location within a single iteration of
    ``region`` (or a single execution, for unit regions)?"""
    if not _comparable(ref1, ref2):
        return DepResult.MAYBE
    if not ref1.subscripts:
        return DepResult.DEF
    verdicts = [
        _dim_intra_iteration(f1, f2, region)
        for f1, f2 in zip(ref1.subscripts, ref2.subscripts)
    ]
    if any(v is DepResult.NONE for v in verdicts):
        return DepResult.NONE
    if all(v is DepResult.DEF for v in verdicts):
        return DepResult.DEF
    return DepResult.MAYBE


# ---------------------------------------------------------------------------
# Class-level tests (lifted references with free inner-loop variables)
# ---------------------------------------------------------------------------
#
# When a sub-region's equivalence class is lifted into an enclosing region R,
# its references represent the locations touched over ALL iterations of the
# loops between the reference's home region and R.  Those induction
# variables are therefore *existentially quantified, independently per
# side*, in any overlap question asked at R.


@dataclass(frozen=True)
class MemberRef:
    """A reference plus its home region, as carried inside an eq class."""

    ref: SymbolicRef
    is_store: bool
    home: Region
    #: modification-epoch snapshot from the originating item (see
    #: :class:`repro.analysis.items.MemoryItem.epochs`)
    epochs: tuple[tuple[int, int], ...] = ()




class _DimFacts:
    """One subscript dimension of one member, split at one asking region.

    ``fixed`` and ``const`` are the remainder once the free inner-loop
    variables are dropped (its terms and constant); ``risky`` lists the
    form's symbols that are neither induction variables of the region's
    loops nor the member's own free variables, yet are assigned inside
    the region.  When every free range is known, ``smin``/``smax`` bound
    the sum of the free instances (``empty`` marks a zero-trip loop).
    """

    __slots__ = (
        "form", "fixed", "const", "risky", "instances", "gcd",
        "known", "empty", "smin", "smax",
    )

    def __init__(
        self,
        form: Affine,
        free: dict[Symbol, Optional[range]],
        ivs: frozenset[Symbol],
        modified: set[Symbol],
    ) -> None:
        self.form = form
        self.const = form.const
        fixed: list[tuple[Symbol, int]] = []
        risky: list[Symbol] = []
        # Free instances: (coefficient, range) per free variable the form uses.
        insts: list[tuple[int, Optional[range]]] = []
        for term in form.terms:
            sym = term[0]
            if sym in free:
                insts.append((term[1], free[sym]))
                continue
            fixed.append(term)
            if sym not in ivs and sym in modified:
                risky.append(sym)
        self.fixed = tuple(fixed)
        self.risky = risky
        self.instances = bool(insts)
        self.gcd = 0
        self.known = True
        self.empty = False
        self.smin = self.smax = 0
        for c, rng in insts:
            self.gcd = math.gcd(self.gcd, abs(c))
            if rng is None:
                self.known = False
        if self.known:
            for c, rng in insts:
                assert rng is not None
                if len(rng) == 0:
                    self.empty = True
                    break
                lo, hi = c * rng[0], c * rng[-1]
                self.smin += min(lo, hi)
                self.smax += max(lo, hi)


class MemberFacts:
    """One member's facts at one asking region, computed once.

    ``free`` maps the induction variables of the loops strictly inside
    the region that enclose the member's home to their iteration ranges
    (``None`` = unknown).  ``dims`` holds the per-dimension splits; it
    is empty for references the affine tests never read (pointer
    dereferences, unknown bases, scalars).
    """

    __slots__ = (
        "member", "ref", "store", "immediate", "free", "dims", "uses_free", "_epochs"
    )

    def __init__(self, member: "MemberRef", region: Region, facts: "RegionFacts") -> None:
        self.member = member
        #: does this member (or one it stands for, see RegionPartitioner) store?
        self.store = member.is_store
        ref = self.ref = member.ref
        self.immediate = member.home is region
        self.free = free = facts.free_vars(member.home, region)
        self.dims: list[Optional[_DimFacts]] = []
        self.uses_free = False
        self._epochs: Optional[dict[int, int]] = None
        if ref.base is None or ref.is_deref or not ref.subscripts:
            return
        ivs = facts.induction_vars(region)
        modified = region.modified_scalars
        for f in ref.subscripts:
            if f is None:
                self.dims.append(None)
                continue
            d = _DimFacts(f, free, ivs, modified)
            self.dims.append(d)
            if d.instances:
                self.uses_free = True

    @property
    def epochs(self) -> dict[int, int]:
        if self._epochs is None:
            self._epochs = dict(self.member.epochs)
        return self._epochs


class RegionFacts:
    """The facts every pair test of one unit build reads, each computed once.

    Per region: the induction variables of its enclosing loops and its
    iteration range.  Per (home, region): the free inner-loop variables
    between them.  :meth:`member` splits one member's subscripts at one
    region; :meth:`overlap` and :meth:`loop_carried` answer one question
    each and count it in :attr:`tests`.

    A region's verdicts are its own: nothing here carries a verdict from
    a sub-region to its parent.  Lifting a member into the parent frees
    the sub-region's induction variable, widens the set of scalars
    assigned in the region and ends the epoch rescue for immediate
    pairs, and each of the three verdicts can move under that:

    * NONE to MAYBE: ``a[i]`` vs ``a[i+1]`` are disjoint within one
      iteration of loop ``i`` and overlap across its iterations;
    * MAYBE to NONE: ``a[2*i]`` vs ``a[1]`` in a loop of unknown bounds
      are MAYBE there, and the GCD test proves them disjoint once ``i``
      is free;
    * DEF to MAYBE: two ``a[s]`` from different homes inside a loop
      that never assigns ``s`` are DEF there, and MAYBE in a parent
      that assigns ``s``.
    """

    __slots__ = ("_ivs", "_ranges", "_free", "tests")

    def __init__(self) -> None:
        self._ivs: dict[int, frozenset[Symbol]] = {}
        self._ranges: dict[int, Optional[range]] = {}
        self._free: dict[tuple[int, int], dict[Symbol, Optional[range]]] = {}
        #: overlap and loop-carried questions answered so far
        self.tests = 0

    def induction_vars(self, region: Region) -> frozenset[Symbol]:
        """Induction variables of the loops enclosing ``region`` (itself included)."""
        got = self._ivs.get(region.region_id)
        if got is None:
            got = self._ivs[region.region_id] = frozenset(_enclosing_induction_vars(region))
        return got

    def iteration_range(self, region: Region) -> Optional[range]:
        rid = region.region_id
        if rid not in self._ranges:
            info = region.loop
            self._ranges[rid] = info.iteration_range() if info is not None else None
        return self._ranges[rid]

    def free_vars(self, home: Region, region: Region) -> dict[Symbol, Optional[range]]:
        """Induction vars of loops strictly inside ``region`` enclosing ``home``.

        Maps each variable to its concrete iteration range when known
        (``None`` = unknown range).  The caller must not mutate the dict.
        """
        key = (home.region_id, region.region_id)
        got = self._free.get(key)
        if got is None:
            got = {}
            for r in home.ancestors():
                if r is region:
                    break
                if r.kind is RegionKind.LOOP and r.loop is not None and r.loop.var is not None:
                    got[r.loop.var] = self.iteration_range(r)
            self._free[key] = got
        return got

    def member(self, member: "MemberRef", region: Region) -> MemberFacts:
        return MemberFacts(member, region, self)

    def overlap(self, x: MemberFacts, y: MemberFacts, region: Region) -> DepResult:
        """:func:`may_overlap` over members split at ``region``."""
        self.tests += 1
        return _overlap(x, y, region)

    def loop_carried(self, x: MemberFacts, y: MemberFacts, loop: Region) -> LoopCarried:
        """:func:`class_loop_carried` over members split at ``loop``.

        The answer for ``(y, x)`` is this one mirrored: the same result
        and distance with ``src_first`` flipped.  Every rule is: the
        constant difference of the remainders changes sign, which
        negates the strong-SIV distance and leaves the ZIV, GCD and
        Banerjee verdicts as they are.
        """
        self.tests += 1
        return _loop_carried(x, y, loop, self)


def may_overlap(m1: MemberRef, m2: MemberRef, region: Region) -> DepResult:
    """May the two (possibly lifted) references touch a common location
    within one iteration of ``region``?

    ``DEF`` means the accessed location *sets* are provably identical and
    non-trivially so (used for the zero-distance merge rule); ``NONE``
    means provably disjoint; anything else is ``MAYBE``.  The verdict is
    symmetric in the two members.
    """
    facts = RegionFacts()
    return _overlap(facts.member(m1, region), facts.member(m2, region), region)


def class_loop_carried(m1: MemberRef, m2: MemberRef, loop: Region) -> LoopCarried:
    """Loop-carried dependence between possibly-lifted member references.

    Exact distances are only produced for non-lifted (immediate) pairs —
    lifted pairs degrade to DEF-any-distance / MAYBE / NONE.
    """
    facts = RegionFacts()
    return _loop_carried(facts.member(m1, loop), facts.member(m2, loop), loop, facts)


def _stable(x: MemberFacts, y: MemberFacts, d1: _DimFacts, d2: _DimFacts) -> bool:
    """Do both references observe the same value of every symbol of the
    dimension, within one iteration of the region?

    A symbol qualifies if it is an allowed induction variable (of the
    region's loops or either side's free loops), is never modified
    inside the region, or — for two *immediate* items of the region —
    both items carry the same modification epoch for it (no assignment
    between the two accesses).
    """
    unstable = [s for s in d1.risky if s not in y.free]
    unstable += [s for s in d2.risky if s not in x.free]
    if not unstable:
        return True
    if not (x.immediate and y.immediate):
        return False
    e1, e2 = x.epochs, y.epochs
    for sym in unstable:
        c1, c2 = e1.get(sym.uid), e2.get(sym.uid)
        if c1 is None or c2 is None or c1 != c2 or c1 < 0:
            return False
    return True


def _overlap(x: MemberFacts, y: MemberFacts, region: Region) -> DepResult:
    r1, r2 = x.ref, y.ref
    if not _comparable(r1, r2):
        return DepResult.MAYBE
    if not r1.subscripts:
        return DepResult.DEF  # same scalar
    all_def = True
    for d1, d2 in zip(x.dims, y.dims):
        if d1 is None or d2 is None:
            all_def = False
            continue
        if (d1.risky or d2.risky) and not _stable(x, y, d1, d2):
            all_def = False
            continue
        if not d1.instances and not d2.instances:
            if d1.fixed == d2.fixed:  # constant difference
                if d1.const != d2.const:
                    return DepResult.NONE
                continue
            v = _dim_intra_iteration(d1.form, d2.form, region, stable=True)
            if v is DepResult.NONE:
                return v
            all_def = False
            continue
        # Identical forms over identical free structure => identical sets.
        if x.free == y.free and d1.form.key() == d2.form.key():
            continue
        if d1.fixed != d2.fixed:
            all_def = False
            continue
        c = d1.const - d2.const
        # GCD test over all free instances (independent unknowns).
        g = math.gcd(d1.gcd, d2.gcd)
        if g and c % g != 0:
            return DepResult.NONE
        # Banerjee bounds when every free range is known; a zero-trip
        # loop on one side resets the running bounds to the empty (1, 0).
        if d1.known and d2.known:
            lo, hi = (1, 0) if d1.empty else (d1.smin, d1.smax)
            if d2.empty:
                lo, hi = 1, 0
            else:
                lo, hi = lo - d2.smax, hi - d2.smin
            if lo > hi or not (lo <= -c <= hi):
                return DepResult.NONE
        all_def = False
    return DepResult.DEF if all_def else DepResult.MAYBE


def _loop_carried(
    x: MemberFacts, y: MemberFacts, loop: Region, facts: RegionFacts
) -> LoopCarried:
    # Inner-loop variables that never appear in the subscripts are inert:
    # fall back to the exact single-loop tests.
    if not x.uses_free and not y.uses_free:
        return _loop_carried_dims(x, y, loop, facts.iteration_range(loop))
    r1, r2 = x.ref, y.ref
    if not _comparable(r1, r2):
        return _MAYBE
    if not r1.subscripts:
        return _EVERY
    free1, free2 = x.free, y.free
    info = loop.loop
    var = info.var if info is not None else None
    ivs = facts.induction_vars(loop)
    # Identical location sets that do not shift with the loop variable are
    # re-touched every iteration.
    identical = all(
        (f1 is not None and f2 is not None and f1.key() == f2.key())
        for f1, f2 in zip(r1.subscripts, r2.subscripts)
    ) and free1.keys() == free2.keys()
    if identical and var is not None:
        uses_var = any(
            f1 is not None and f1.coeff(var) != 0 for f1 in r1.subscripts
        )
        allowed = ivs | free1.keys()
        invariant = all(
            f is not None and _form_symbols_ok(f, loop, allowed)
            for f in r1.subscripts
        )
        if not invariant:
            return _MAYBE
        if not uses_var:
            return _EVERY
        # Shifts with var but free inner vars may still collide across
        # iterations (e.g. a[i+j]): conservative.
        return _MAYBE
    # General lifted case: the overlap tests without the iteration
    # constraint, the loop variable being one more independent free
    # variable on each side.  A dimension proven disjoint decides NONE.
    fake_free = dict(free1)
    fake_free2 = dict(free2)
    if var is not None:
        rng = facts.iteration_range(loop)
        fake_free[var] = rng
        fake_free2[var] = rng
    modified = loop.modified_scalars
    for f1, f2 in zip(r1.subscripts, r2.subscripts):
        if f1 is None or f2 is None:
            continue
        d1 = _DimFacts(f1, fake_free, ivs, modified)
        d2 = _DimFacts(f2, fake_free2, ivs, modified)
        # Every symbol must be an induction variable of the enclosing
        # loops, a free variable of either side, or invariant in the loop.
        if any(s not in fake_free2 for s in d1.risky) or any(
            s not in fake_free for s in d2.risky
        ):
            continue
        if d1.fixed != d2.fixed:
            continue
        c = d1.const - d2.const
        if not d1.instances and not d2.instances:
            if c != 0:
                return NO_DEP
            continue
        g = math.gcd(d1.gcd, d2.gcd)
        if g and c % g != 0:
            return NO_DEP
        if d1.known and d2.known:
            if d1.empty or d2.empty:
                return NO_DEP
            if not (d1.smin - d2.smax <= -c <= d1.smax - d2.smin):
                return NO_DEP
    return _MAYBE
