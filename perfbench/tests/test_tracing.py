"""Self-time arithmetic on hand-built span trees."""

import pytest

from perfbench.tracing import Span, Tracer, covered, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == 5.0
    assert covered([(8.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered([(1.0, 2.0), (2.0, 3.0), (5.0, 5.0)], 0.0, 10.0) == 2.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("op", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),  # overlaps a: covered once
        Span("a.child", 2.0, 3.0, 1, 1),
        Span("c", 8.0, 12.0, 0, 1),  # runs past its parent: clipped there
        Span("op", 20.0, 21.0, -1, 2),
    ]
    times = self_times(spans)
    assert times["op"] == pytest.approx(3.0 + 1.0)
    assert times["a"] == pytest.approx(2.0)
    assert times["b"] == pytest.approx(3.0)
    assert times["a.child"] == pytest.approx(1.0)
    assert times["c"] == pytest.approx(4.0)
    assert self_times(spans, ops={2}) == {"op": pytest.approx(1.0)}


def test_tracer_records_parents_ops_and_counts(tmp_path):
    t = Tracer()
    t.op = 7
    with t.span("op"):
        with t.span("layer.a"):
            t.count("layer.items", 3)
        with t.span("layer.b"):
            pass
    assert [(s.name, s.parent, s.op) for s in t.spans] == [
        ("op", -1, 7), ("layer.a", 0, 7), ("layer.b", 0, 7)
    ]
    assert t.counts == [(7, "layer.items", 3)]
    root, a, b = t.spans
    assert root.start <= a.start <= a.end <= b.start <= b.end <= root.end
    total = sum(self_times(t.spans).values())
    assert total == pytest.approx(root.end - root.start)
    t.write(tmp_path / "spans.json")
    assert (tmp_path / "spans.json").read_text().startswith('{"spans"')
