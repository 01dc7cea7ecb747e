"""Generic iterative dataflow framework over the back-end CFG.

A classic forward worklist solver parameterized by a
:class:`DataflowProblem`: a meet operator and per-instruction transfer
functions.  Facts are immutable ``frozenset`` values, so the solver can
compare and cache them freely.

One problem is provided, over the RTL of one function's
:class:`~repro.backend.cfg.CFG`: :class:`ReachingDefinitions`, which
register-writing instructions may reach a program point (union meet).
It is deliberately HLI-free: the checker's dependence oracle
(:mod:`repro.checker.oracle`) builds on it without consuming any
front-end facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..backend.cfg import CFG, BasicBlock
from ..backend.rtl import Insn


class DataflowProblem:
    """One forward dataflow problem: lattice + transfer functions.

    Subclasses implement :meth:`boundary` (the fact entering the CFG),
    :meth:`top` (the initial interior fact), :meth:`meet`, and
    :meth:`transfer_insn`.
    """

    def boundary(self) -> frozenset:
        """Fact at the entry of the CFG."""
        return frozenset()

    def top(self) -> frozenset:
        """Initial optimistic fact for interior blocks."""
        return frozenset()

    def meet(self, a: frozenset, b: frozenset) -> frozenset:
        """Combine facts along confluent edges (default: union)."""
        return a | b

    def transfer_insn(self, insn: Insn, fact: frozenset) -> frozenset:
        """Fact after one instruction."""
        return fact

    def transfer_block(self, block: BasicBlock, fact: frozenset) -> frozenset:
        for insn in block.insns:
            fact = self.transfer_insn(insn, fact)
        return fact


@dataclass
class DataflowResult:
    """Per-block fixpoint facts of one solved problem."""

    problem: DataflowProblem
    cfg: CFG
    #: block index -> fact at block entry
    in_facts: dict[int, frozenset] = field(default_factory=dict)
    #: block index -> fact at block exit
    out_facts: dict[int, frozenset] = field(default_factory=dict)
    iterations: int = 0

    def insn_facts(self, block: BasicBlock) -> Iterator[tuple[Insn, frozenset]]:
        """Yield ``(insn, fact holding just before it)`` in program order."""
        fact = self.in_facts[block.index]
        for insn in block.insns:
            yield insn, fact
            fact = self.problem.transfer_insn(insn, fact)


def _rpo(cfg: CFG) -> list[int]:
    """Reverse postorder over block indices from block 0."""
    seen: set[int] = set()
    order: list[int] = []

    def visit(idx: int) -> None:
        stack = [(idx, iter(cfg.blocks[idx].succs))]
        seen.add(idx)
        while stack:
            node, succs = stack[-1]
            advanced = False
            for s in succs:
                if s not in seen:
                    seen.add(s)
                    stack.append((s, iter(cfg.blocks[s].succs)))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    if cfg.blocks:
        visit(0)
    # unreachable blocks appended in index order for completeness
    for b in cfg.blocks:
        if b.index not in seen:
            order.append(b.index)
            seen.add(b.index)
    return list(reversed(order))


def solve(cfg: CFG, problem: DataflowProblem, max_iterations: int = 10_000) -> DataflowResult:
    """Run the worklist algorithm to a fixpoint.

    Deterministic: blocks are processed in reverse postorder, and the
    worklist is kept sorted by that priority.
    """
    result = DataflowResult(problem=problem, cfg=cfg)
    if not cfg.blocks:
        return result

    priority = {b: i for i, b in enumerate(_rpo(cfg))}

    # boundary blocks: no predecessors
    boundary_fact = problem.boundary()
    for b in cfg.blocks:
        result.in_facts[b.index] = problem.top()
    for b in cfg.blocks:
        if not b.preds:
            result.in_facts[b.index] = boundary_fact
    for b in cfg.blocks:
        result.out_facts[b.index] = problem.transfer_block(b, result.in_facts[b.index])

    pending = set(priority)
    while pending:
        result.iterations += 1
        if result.iterations > max_iterations:
            raise RuntimeError("dataflow solver failed to converge")
        idx = min(pending, key=priority.__getitem__)
        pending.discard(idx)
        sources = cfg.blocks[idx].preds
        if sources:
            fact = result.out_facts[sources[0]]
            for s in sources[1:]:
                fact = problem.meet(fact, result.out_facts[s])
        else:
            fact = boundary_fact
        out = problem.transfer_block(cfg.blocks[idx], fact)
        if fact != result.in_facts[idx] or out != result.out_facts[idx]:
            result.in_facts[idx] = fact
            result.out_facts[idx] = out
            pending.update(cfg.blocks[idx].succs)
    return result


# ---------------------------------------------------------------------------
# Problem instances
# ---------------------------------------------------------------------------


#: Sentinel for definitions that reach from outside the function
#: (parameters, uninitialized reads).
ENTRY_DEF = -1


class ReachingDefinitions(DataflowProblem):
    """Which defining instructions (by ``uid``) may reach each point.

    Facts are frozensets of ``(reg_id, def_uid)`` pairs; ``def_uid`` is
    :data:`ENTRY_DEF` for values flowing in at function entry.
    """

    def __init__(self, cfg: CFG, param_regs: Optional[list] = None) -> None:
        self.cfg = cfg
        self._entry = frozenset((r.rid, ENTRY_DEF) for r in param_regs or [])

    def boundary(self) -> frozenset:
        return self._entry

    def transfer_insn(self, insn: Insn, fact: frozenset) -> frozenset:
        if insn.dst is None:
            return fact
        rid = insn.dst.rid
        return frozenset(d for d in fact if d[0] != rid) | {(rid, insn.uid)}

    # -- convenience -----------------------------------------------------------

    @staticmethod
    def defs_of(fact: frozenset, rid: int) -> set[int]:
        """UIDs of the definitions of register ``rid`` in ``fact``."""
        return {uid for r, uid in fact if r == rid}

