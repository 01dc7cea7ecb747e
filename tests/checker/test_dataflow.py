"""Unit tests for the generic dataflow framework and reaching definitions."""

from repro.backend.cfg import build_cfg
from repro.backend.rtl import Insn, Opcode, Reg, RTLFunction
from repro.checker.dataflow import ENTRY_DEF, ReachingDefinitions, solve


def _reg(rid):
    return Reg(rid=rid)


def _diamond_fn():
    """if (r1) r2 = 1 else r2 = 2; use r2.

    Block structure: entry (branch), then-arm, else-arm, join.
    """
    r1, r2 = _reg(1), _reg(2)
    insns = [
        Insn(Opcode.BEQZ, srcs=(r1,), label="Lelse"),
        Insn(Opcode.LI, dst=r2, imm=1),
        Insn(Opcode.J, label="Ljoin"),
        Insn(Opcode.LABEL, label="Lelse"),
        Insn(Opcode.LI, dst=r2, imm=2),
        Insn(Opcode.LABEL, label="Ljoin"),
        Insn(Opcode.ADD, dst=_reg(3), srcs=(r2, r2)),
        Insn(Opcode.RET),
    ]
    return RTLFunction(name="f", insns=insns, param_regs=[r1]), insns


class TestReachingDefinitions:
    def test_both_arms_reach_join(self):
        fn, insns = _diamond_fn()
        cfg = build_cfg(fn)
        res = solve(cfg, ReachingDefinitions(cfg, param_regs=fn.param_regs))
        join = next(b for b in cfg.blocks if any(i.op is Opcode.ADD for i in b.insns))
        defs = ReachingDefinitions.defs_of(res.in_facts[join.index], 2)
        assert defs == {insns[1].uid, insns[4].uid}

    def test_param_is_entry_def(self):
        fn, _ = _diamond_fn()
        cfg = build_cfg(fn)
        res = solve(cfg, ReachingDefinitions(cfg, param_regs=fn.param_regs))
        assert ReachingDefinitions.defs_of(res.in_facts[0], 1) == {ENTRY_DEF}

    def test_redefinition_kills(self):
        r = _reg(7)
        a = Insn(Opcode.LI, dst=r, imm=1)
        b = Insn(Opcode.LI, dst=r, imm=2)
        use = Insn(Opcode.MOVE, dst=_reg(8), srcs=(r,))
        fn = RTLFunction(name="g", insns=[a, b, use, Insn(Opcode.RET)])
        cfg = build_cfg(fn)
        res = solve(cfg, ReachingDefinitions(cfg))
        facts = dict(
            (i.uid, f) for blk in cfg.blocks for i, f in res.insn_facts(blk)
        )
        assert ReachingDefinitions.defs_of(facts[use.uid], 7) == {b.uid}

    def test_loop_converges(self):
        r = _reg(1)
        insns = [
            Insn(Opcode.LI, dst=r, imm=0),
            Insn(Opcode.LABEL, label="L"),
            Insn(Opcode.ADD, dst=r, srcs=(r, 1)),
            Insn(Opcode.BNEZ, srcs=(r,), label="L"),
            Insn(Opcode.RET),
        ]
        fn = RTLFunction(name="loop", insns=insns)
        cfg = build_cfg(fn)
        res = solve(cfg, ReachingDefinitions(cfg))
        header = next(
            b for b in cfg.blocks if any(i.op is Opcode.LABEL for i in b.insns)
        )
        # both the init and the loop-body def reach the header
        assert ReachingDefinitions.defs_of(res.in_facts[header.index], 1) == {
            insns[0].uid,
            insns[2].uid,
        }


class TestEdgeCases:
    """Degenerate CFG shapes the worklist solver must handle exactly."""

    def test_empty_cfg(self):
        from repro.backend.cfg import CFG

        res = solve(CFG(blocks=[]), ReachingDefinitions(CFG(blocks=[])))
        assert res.in_facts == {} and res.out_facts == {}
        assert res.iterations == 0

    def test_function_with_no_insns(self):
        fn = RTLFunction(name="empty", insns=[])
        cfg = build_cfg(fn)
        res = solve(cfg, ReachingDefinitions(cfg))
        assert all(f == frozenset() for f in res.out_facts.values())

    def test_unreachable_block_gets_boundary_fact(self):
        """Code after an unconditional jump: no predecessors, still solved."""
        r = _reg(1)
        dead_def = Insn(Opcode.LI, dst=r, imm=9)
        insns = [
            Insn(Opcode.J, label="Lend"),
            Insn(Opcode.LABEL, label="Ldead"),
            dead_def,
            Insn(Opcode.J, label="Lend"),
            Insn(Opcode.LABEL, label="Lend"),
            Insn(Opcode.RET),
        ]
        fn = RTLFunction(name="u", insns=insns)
        cfg = build_cfg(fn)
        dead = next(
            b
            for b in cfg.blocks
            if any(i.op is Opcode.LABEL and i.label == "Ldead" for i in b.insns)
        )
        assert dead.preds == []
        res = solve(cfg, ReachingDefinitions(cfg))
        # The unreachable block starts from the boundary fact, and its def
        # still flows to the join it jumps to (the solver visits it).
        assert res.in_facts[dead.index] == frozenset()
        end = next(
            b
            for b in cfg.blocks
            if any(i.op is Opcode.LABEL and i.label == "Lend" for i in b.insns)
        )
        assert (r.rid, dead_def.uid) in res.in_facts[end.index]

    def test_single_block_no_selfloop_converges_in_one_visit(self):
        r = _reg(2)
        fn = RTLFunction(
            name="s", insns=[Insn(Opcode.LI, dst=r, imm=1), Insn(Opcode.RET)]
        )
        cfg = build_cfg(fn)
        assert len(cfg.blocks) == 1 and cfg.blocks[0].succs == []
        res = solve(cfg, ReachingDefinitions(cfg))
        assert res.iterations == 1
        assert (r.rid, fn.insns[0].uid) in res.out_facts[0]

    def test_self_recursive_block_reaches_fixpoint(self):
        """A block that is its own successor (one-block loop SCC)."""
        r = _reg(3)
        init = Insn(Opcode.LI, dst=r, imm=0)
        body = Insn(Opcode.ADD, dst=r, srcs=(r, r))
        insns = [
            init,
            Insn(Opcode.LABEL, label="Lt"),
            body,
            Insn(Opcode.BNEZ, srcs=(r,), label="Lt"),
            Insn(Opcode.RET),
        ]
        fn = RTLFunction(name="sl", insns=insns)
        cfg = build_cfg(fn)
        header = next(
            b
            for b in cfg.blocks
            if any(i.op is Opcode.LABEL and i.label == "Lt" for i in b.insns)
        )
        assert header.index in header.succs  # genuinely self-recursive
        res = solve(cfg, ReachingDefinitions(cfg))
        # Both the initial def and the in-loop redefinition reach the top of
        # the loop; the solver revisited the header at least once.
        assert ReachingDefinitions.defs_of(res.in_facts[header.index], r.rid) == {
            init.uid,
            body.uid,
        }
        assert res.iterations > len(cfg.blocks)
