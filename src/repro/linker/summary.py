"""Whole-program call graph and bottom-up interprocedural summaries.

The linker builds the cross-unit call graph from the per-unit
:class:`~repro.linker.unit.LocalSummary` records, decomposes it into
strongly connected components (Tarjan), and runs a Kleene fixpoint
bottom-up over the SCC condensation: each function's summary is its
local effects joined with the *instantiated* summaries of its callees,
where instantiation substitutes call-site argument bindings into the
callee's parameter effects.

Because SCCs are processed callees-first, a non-recursive program
converges in one transfer application per function; recursive SCCs
iterate until stable (the iteration counts are recorded for the HLI011
convergence lint).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend.semantic import PURE_EXTERNALS
from .unit import ANY, CallSite, LocalSummary, UnitAnalysis

__all__ = [
    "FnSummary",
    "SummaryResult",
    "build_call_graph",
    "from_local",
    "tarjan_sccs",
    "compute_summaries",
    "transfer",
]


@dataclass
class FnSummary:
    """Cross-module REF/MOD summary of one defined function."""

    name: str
    unit: str
    ref_names: set[str] = field(default_factory=set)
    mod_names: set[str] = field(default_factory=set)
    ref_any: bool = False
    mod_any: bool = False
    param_ref: set[int] = field(default_factory=set)
    param_mod: set[int] = field(default_factory=set)
    scc_id: int = -1

    def copy(self) -> "FnSummary":
        return FnSummary(
            name=self.name,
            unit=self.unit,
            ref_names=set(self.ref_names),
            mod_names=set(self.mod_names),
            ref_any=self.ref_any,
            mod_any=self.mod_any,
            param_ref=set(self.param_ref),
            param_mod=set(self.param_mod),
            scc_id=self.scc_id,
        )

    def covers(self, other: "FnSummary") -> bool:
        """Is this summary at least as conservative as ``other``?"""
        if other.ref_any and not self.ref_any:
            return False
        if other.mod_any and not self.mod_any:
            return False
        if not self.ref_any and not other.ref_names <= self.ref_names:
            return False
        if not self.mod_any and not other.mod_names <= self.mod_names:
            return False
        if not self.ref_any and not other.param_ref <= self.param_ref:
            return False
        if not self.mod_any and not other.param_mod <= self.param_mod:
            return False
        return True

    def fingerprint(self) -> str:
        """Stable text form for cache keys and lint comparison."""
        return (
            f"{self.name}@{self.unit}"
            f" ref={'*' if self.ref_any else ','.join(sorted(self.ref_names))}"
            f" mod={'*' if self.mod_any else ','.join(sorted(self.mod_names))}"
            f" pref={','.join(map(str, sorted(self.param_ref)))}"
            f" pmod={','.join(map(str, sorted(self.param_mod)))}"
        )


@dataclass
class SummaryResult:
    """Everything the SCC fixpoint produced."""

    summaries: dict[str, FnSummary] = field(default_factory=dict)
    #: SCC id -> member function names (bottom-up order)
    sccs: list[list[str]] = field(default_factory=list)
    #: SCC id -> fixpoint iterations it took to stabilize
    iterations: list[int] = field(default_factory=list)

    @property
    def total_iterations(self) -> int:
        return sum(self.iterations)


def from_local(local: LocalSummary) -> FnSummary:
    """Seed a cross-module summary from a function's local effects."""
    return FnSummary(
        name=local.name,
        unit=local.unit,
        ref_names=set(local.ref_names),
        mod_names=set(local.mod_names),
        ref_any=local.ref_any,
        mod_any=local.mod_any,
        param_ref=set(local.param_ref),
        param_mod=set(local.param_mod),
    )


def build_call_graph(units: list[UnitAnalysis]) -> dict[str, set[str]]:
    """Whole-program call graph over *defined* functions."""
    defined = {name for u in units for name in u.defined_functions()}
    graph: dict[str, set[str]] = {}
    for u in units:
        for name, local in u.locals.items():
            graph[name] = {c.callee for c in local.calls if c.callee in defined}
    return graph


def tarjan_sccs(graph: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components, emitted callees-first (bottom-up).

    Iterative Tarjan so deep call chains cannot overflow Python's stack.
    Node order is name-sorted for determinism.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work: list[tuple[str, list[str], int]] = [(root, sorted(graph.get(root, ())), 0)]
        while work:
            node, succs, pos = work.pop()
            if pos == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            while pos < len(succs):
                succ = succs[pos]
                pos += 1
                if succ not in index:
                    work.append((node, succs, pos))
                    work.append((succ, sorted(graph.get(succ, ())), 0))
                    recurse = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if recurse:
                continue
            if low[node] == index[node]:
                comp: list[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return sccs


def transfer(
    summary: FnSummary,
    local: LocalSummary,
    summaries: dict[str, FnSummary],
) -> bool:
    """Apply one transfer step: join instantiated callee summaries in.

    Returns True when ``summary`` changed.
    """
    changed = False

    def set_ref_any() -> None:
        nonlocal changed
        if not summary.ref_any:
            summary.ref_any = True
            changed = True

    def set_mod_any() -> None:
        nonlocal changed
        if not summary.mod_any:
            summary.mod_any = True
            changed = True

    def add(names_attr: str, names: set[str]) -> None:
        nonlocal changed
        target: set[str] = getattr(summary, names_attr)
        before = len(target)
        target |= names
        if len(target) != before:
            changed = True

    def add_params(attr: str, indices: set[int]) -> None:
        nonlocal changed
        target: set[int] = getattr(summary, attr)
        before = len(target)
        target |= indices
        if len(target) != before:
            changed = True

    def instantiate(call: CallSite, indices: set[int], is_ref: bool) -> None:
        for i in sorted(indices):
            bind = call.bindings[i] if i < len(call.bindings) else ANY
            if bind is None or bind == ANY:
                set_ref_any() if is_ref else set_mod_any()
            elif isinstance(bind, frozenset):
                add("ref_names" if is_ref else "mod_names", set(bind))
            elif isinstance(bind, tuple) and bind and bind[0] == "param":
                add_params("param_ref" if is_ref else "param_mod", {bind[1]})
            else:  # pragma: no cover - exhaustive Binding variants
                set_ref_any() if is_ref else set_mod_any()

    for call in local.calls:
        callee = summaries.get(call.callee)
        if callee is not None:
            if callee.ref_any:
                set_ref_any()
            else:
                add("ref_names", callee.ref_names)
                instantiate(call, callee.param_ref, is_ref=True)
            if callee.mod_any:
                set_mod_any()
            else:
                add("mod_names", callee.mod_names)
                instantiate(call, callee.param_mod, is_ref=False)
            continue
        if call.callee in PURE_EXTERNALS:
            continue
        # Unknown external: may touch anything.
        set_ref_any()
        set_mod_any()
    return changed


def compute_summaries(units: list[UnitAnalysis]) -> SummaryResult:
    """Bottom-up SCC fixpoint over the whole-program call graph."""
    result = SummaryResult()
    locals_by_name: dict[str, LocalSummary] = {}
    for u in units:
        for name, local in u.locals.items():
            locals_by_name[name] = local
    result.sccs = tarjan_sccs(build_call_graph(units))
    for name, local in locals_by_name.items():
        result.summaries[name] = from_local(local)
    for scc_id, comp in enumerate(result.sccs):
        for name in comp:
            result.summaries[name].scc_id = scc_id
        iterations = 0
        changed = True
        while changed:
            iterations += 1
            changed = False
            for name in comp:
                if transfer(result.summaries[name], locals_by_name[name], result.summaries):
                    changed = True
        result.iterations.append(iterations)
    return result
