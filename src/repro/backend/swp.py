"""Software-pipelining feasibility analysis driven by LCDD information.

The paper singles out cyclic scheduling: "LCDD information is
indispensable for a cyclic scheduling algorithm such as software
pipelining" (Section 3.2.2).  This module computes the classic
*minimum initiation interval* bounds for innermost loops:

* **ResMII** — resource bound: ``ceil(#insns / issue_width)``;
* **RecMII** — recurrence bound: the maximum over dependence cycles of
  ``ceil(total latency / total distance)``, found by binary search on II
  with a positive-cycle test (Bellman-Ford over edge weights
  ``latency - II * distance``).

The dependence graph takes intra-iteration edges from the block DDG and
cross-iteration edges from either:

* the **conservative** assumption GCC 2.7 is stuck with — every memory
  pair involving a store recurs at distance 1; or
* the **HLI LCDD table** — exact distances, definite/maybe, or no arc
  at all.

The gap between the two RecMII values is the paper's point: without
distances, software pipelining has almost no headroom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..hli.query import HLIQuery
from ..machine.latencies import r10000_latency
from .ddg import DDGBuilder, DDGMode
from .deps import may_conflict
from .rtl import Insn, Opcode, RTLFunction


@dataclass
class MIIResult:
    """Initiation-interval bounds for one loop."""

    res_mii: int
    rec_mii: int
    insns: int

    @property
    def mii(self) -> int:
        return max(self.res_mii, self.rec_mii)


@dataclass
class LoopPipelineReport:
    """Per-loop comparison of conservative vs LCDD-informed bounds."""

    header_label: str
    gcc: MIIResult
    hli: MIIResult

    @property
    def headroom(self) -> float:
        """How much tighter HLI's bound is (>=1; 1 = no improvement)."""
        return self.gcc.mii / self.hli.mii if self.hli.mii else 1.0


@dataclass(frozen=True)
class _Edge:
    src: int
    dst: int
    latency: int
    distance: int


def _positive_cycle(n: int, edges: list[_Edge], ii: int) -> bool:
    """Is there a cycle with positive weight under ``w = lat - ii*dist``?

    Bellman-Ford longest-path relaxation; any relaxation on the n-th pass
    implies a positive cycle (II infeasible).
    """
    dist = [0] * n
    for _ in range(n):
        changed = False
        for e in edges:
            w = e.latency - ii * e.distance
            if dist[e.src] + w > dist[e.dst]:
                dist[e.dst] = dist[e.src] + w
                changed = True
        if not changed:
            return False
    return True


def _rec_mii(n: int, edges: list[_Edge], upper: int) -> int:
    """Smallest II with no positive cycle (binary search)."""
    if not edges:
        return 1
    lo, hi = 1, max(upper, 1)
    if _positive_cycle(n, edges, hi):
        return hi  # pathological; report the cap
    while lo < hi:
        mid = (lo + hi) // 2
        if _positive_cycle(n, edges, mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _loop_body(fn: RTLFunction, top: str) -> Optional[list[Insn]]:
    start = None
    for idx, insn in enumerate(fn.insns):
        if insn.op is Opcode.LABEL and insn.label == top:
            start = idx
        elif insn.op is Opcode.J and insn.label == top and start is not None:
            body = fn.insns[start + 1 : idx]
            return [i for i in body if i.op is not Opcode.LABEL]
    return None


def _cross_iteration_edges_gcc(
    body: list[Insn], latency: Callable[[Insn], int]
) -> list[_Edge]:
    """Conservative recurrences: every store recurs with every other
    memory access at distance 1 (GCC cannot prove otherwise)."""
    out: list[_Edge] = []
    for i, a in enumerate(body):
        if a.mem is None:
            continue
        for j, b in enumerate(body):
            if b.mem is None:
                continue
            if not (a.mem.is_store or b.mem.is_store):
                continue
            if not may_conflict(a.mem, b.mem):
                continue
            out.append(_Edge(src=i, dst=j, latency=latency(a), distance=1))
    return out


def _cross_iteration_edges_hli(
    body: list[Insn],
    query: HLIQuery,
    latency: Callable[[Insn], int],
) -> list[_Edge]:
    """LCDD-informed recurrences with exact distances where known."""
    out: list[_Edge] = []
    for i, a in enumerate(body):
        if a.mem is None or a.hli_item is None:
            continue
        for j, b in enumerate(body):
            if b.mem is None or b.hli_item is None:
                continue
            if not (a.mem.is_store or b.mem.is_store):
                continue
            arcs = query.get_lcdd(a.hli_item, b.hli_item)
            if arcs is None:
                # item not covered: conservative distance-1 recurrence
                out.append(_Edge(src=i, dst=j, latency=latency(a), distance=1))
                continue
            for arc in arcs:
                dist = arc.distance if arc.distance is not None else 1
                out.append(
                    _Edge(src=i, dst=j, latency=latency(a), distance=max(dist, 1))
                )
    return out


def _register_recurrences(
    body: list[Insn], latency: Callable[[Insn], int]
) -> list[_Edge]:
    """Loop-carried register dependences (accumulators, induction vars):
    a register read before its (re)definition recurs at distance 1."""
    defined: set[int] = set()
    live_in: set[int] = set()
    for insn in body:
        for s in insn.src_regs():
            if s.rid not in defined:
                live_in.add(s.rid)
        if insn.dst is not None:
            defined.add(insn.dst.rid)
    out: list[_Edge] = []
    writer: dict[int, int] = {}
    for idx, insn in enumerate(body):
        if insn.dst is not None and insn.dst.rid in live_in:
            writer[insn.dst.rid] = idx
    for idx, insn in enumerate(body):
        for s in insn.src_regs():
            w = writer.get(s.rid)
            if w is not None and w >= idx:
                # value produced later in the body (or by this insn) is
                # consumed next iteration
                out.append(_Edge(src=w, dst=idx, latency=latency(body[w]), distance=1))
    return out


def analyze_loop_pipelining(
    fn: RTLFunction,
    query: Optional[HLIQuery] = None,
    latency: Callable[[Insn], int] = r10000_latency,
    issue_width: int = 4,
) -> list[LoopPipelineReport]:
    """MII bounds for every innermost loop, conservative vs LCDD-informed."""
    reports: list[LoopPipelineReport] = []
    inner_tops = [t for t, _, _ in fn.loops]
    for top, _cont, _exit in fn.loops:
        body = _loop_body(fn, top)
        if body is None or not body:
            continue
        # innermost only
        labels_inside = {
            i.label for i in body if i.op is Opcode.LABEL and i.label is not None
        }
        if any(t in labels_inside for t in inner_tops if t != top):
            continue
        if any(i.op in (Opcode.CALL, Opcode.RET) for i in body):
            continue  # calls preclude pipelining here
        n = len(body)
        res_mii = max(1, -(-n // issue_width))
        # intra-iteration edges from the block DDG (combined mode when HLI
        # is present; that is what a pipelining compiler would use)
        intra_mode = DDGMode.COMBINED if query is not None else DDGMode.GCC
        ddg = DDGBuilder(mode=intra_mode, query=query).build(list(body))
        # anti/output edges only order issue slots; a cycle through them
        # costs one cycle, not the source's full latency
        intra = [
            _Edge(
                src=i,
                dst=j,
                latency=(
                    latency(body[i])
                    if ddg.kinds.get((i, j)) in ("raw", "mem")
                    else 1
                ),
                distance=0,
            )
            for i in range(n)
            for j in ddg.succs[i]
        ]
        reg_rec = _register_recurrences(body, latency)
        cap = sum(latency(i) for i in body) + 1

        gcc_edges = intra + reg_rec + _cross_iteration_edges_gcc(body, latency)
        gcc_rec = _rec_mii(n, gcc_edges, cap)
        if query is not None:
            hli_edges = intra + reg_rec + _cross_iteration_edges_hli(
                body, query, latency
            )
            hli_rec = _rec_mii(n, hli_edges, cap)
        else:
            hli_rec = gcc_rec
        reports.append(
            LoopPipelineReport(
                header_label=top,
                gcc=MIIResult(res_mii=res_mii, rec_mii=gcc_rec, insns=n),
                hli=MIIResult(res_mii=res_mii, rec_mii=hli_rec, insns=n),
            )
        )
    return reports
