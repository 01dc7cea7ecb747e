"""The work an HLI build does, counted rather than timed.

TBLCONST answers each (member, member, region) overlap question and
each loop-carried question at most once per unit build: the merge step
keeps its unit-pair verdicts and the alias table reads them back.  The
region tree's traversal walks every statement expression once and hands
ITEMGEN the scalars it assigns, so the generic expression walker visits
each node about twice per build (points-to, then the region tree); it
was three times when ITEMGEN walked again.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.analysis.builder import HLIBuilder, build_hli
from repro.analysis.depend import RegionFacts, class_loop_carried, may_overlap
from repro.analysis.regions import RegionKind
from repro.bench.registry import materialize
from repro.frontend import ast_nodes as ast
from repro.frontend import parse_and_check
from repro.obs import metrics

SETS = ("suite-v1", "quick-v1")


def _units():
    for name in SETS:
        for prog in materialize(name):
            yield from prog.units


def _expression_nodes(program: ast.Program) -> int:
    seen: set[int] = set()
    for fn in program.functions:
        assert fn.body is not None
        for stmt in ast.walk_stmts(fn.body):
            for e in ast.stmt_exprs(stmt):
                seen.update(id(x) for x in ast.walk_exprs(e))
    return len(seen)


class TestBuildCost:
    def test_each_pair_question_is_answered_once_per_unit_build(self, monkeypatch):
        asked: list[tuple] = []
        overlap, loop_carried = RegionFacts.overlap, RegionFacts.loop_carried

        def count_overlap(self, x, y, region):
            # The overlap verdict is symmetric, so (x, y) and (y, x) are
            # one question.
            asked.append(("overlap", frozenset((id(x.member), id(y.member))), region.region_id))
            return overlap(self, x, y, region)

        def count_loop_carried(self, x, y, loop):
            # (y, x) is the mirror of (x, y): one question too.
            asked.append(("lcdd", frozenset((id(x.member), id(y.member))), loop.region_id))
            return loop_carried(self, x, y, loop)

        monkeypatch.setattr(RegionFacts, "overlap", count_overlap)
        monkeypatch.setattr(RegionFacts, "loop_carried", count_loop_carried)
        total = 0
        for filename, source in _units():
            program, table = parse_and_check(source, filename)
            b = HLIBuilder(program, table)
            for fn in program.functions:
                asked.clear()
                _entry, unit = b.build_unit(fn)
                assert len(set(asked)) == len(asked), f"{filename}:{fn.name}"
                assert unit.overlap_tests == len(asked)
                total += len(asked)
        assert total > 1000

    def test_generic_walker_visits_each_node_about_twice(self, monkeypatch):
        visits = 0
        walk = ast.walk_exprs

        def counting_walk(e):
            nonlocal visits
            out = walk(e)
            visits += len(out)
            return out

        nodes = 0
        for filename, source in _units():
            program, table = parse_and_check(source, filename)
            nodes += _expression_nodes(program)
            monkeypatch.setattr(ast, "walk_exprs", counting_walk)
            build_hli(program, table)
            monkeypatch.setattr(ast, "walk_exprs", walk)
        assert (visits, nodes) == VISITS_AND_NODES
        assert visits / nodes == pytest.approx(2.0, abs=0.05)


#: (generic-walker node visits, distinct expression nodes) over suite-v1
#: and quick-v1; the parent of this pin visited 3.0 times per node.
VISITS_AND_NODES = (15248, 7624)


def test_pair_verdicts_are_symmetric():
    """The sharing above counts (x, y) and (y, x) as one question: the
    overlap verdict must not depend on the order, and the loop-carried
    verdict must only swap its source and sink."""
    pairs = 0
    for filename, source in _units():
        program, table = parse_and_check(source, filename)
        _hli, info = build_hli(program, table)
        for unit in info.units.values():
            by_region: dict[int, list] = {}
            for c in unit.class_info.values():
                if c.base is not None and not c.is_deref:
                    by_region.setdefault(c.region.region_id, []).extend(
                        (c.region, m) for m in c.members
                    )
            for members in by_region.values():
                for i, (region, m1) in enumerate(members):
                    for _, m2 in members[i:]:
                        if m1.ref.base is not m2.ref.base:
                            continue
                        pairs += 1
                        assert may_overlap(m1, m2, region) is may_overlap(m2, m1, region)
                        if region.kind is not RegionKind.LOOP:
                            continue
                        a = class_loop_carried(m1, m2, region)
                        b = class_loop_carried(m2, m1, region)
                        assert (a.result, a.distance, a.any_distance) == (
                            b.result, b.distance, b.any_distance
                        )
                        if a.distance is not None and not a.any_distance:
                            assert a.src_first is not b.src_first
    assert pairs > 1000


def test_overlap_tests_counter_counts_the_questions():
    source = materialize("suite-v1")[0].units[0]
    program, table = parse_and_check(source[1], source[0])
    obs.reset()
    with obs.enabled_scope():
        _hli, info = build_hli(program, table)
        counted = metrics.counters().get("analysis.overlap_tests", 0)
    obs.reset()
    assert counted == sum(u.overlap_tests for u in info.units.values()) > 0
