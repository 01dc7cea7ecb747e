"""Software-pipelining MII analysis tests."""

from repro import CompileOptions, compile_source
from repro.backend.swp import _Edge, _positive_cycle, _rec_mii, analyze_loop_pipelining
from repro.hli.query import HLIQuery


def compile_for(src: str, name="swp.c"):
    comp = compile_source(src, name, CompileOptions(schedule=False))
    fn = comp.rtl.functions["main"]
    query = HLIQuery(comp.hli.entry("main"))
    return fn, query


class TestCycleMachinery:
    def test_no_edges_ii_one(self):
        assert _rec_mii(3, [], upper=100) == 1

    def test_simple_recurrence(self):
        # a 6-cycle latency loop carried at distance 1 => II >= 6
        edges = [
            _Edge(0, 1, latency=3, distance=0),
            _Edge(1, 0, latency=3, distance=1),
        ]
        assert _rec_mii(2, edges, upper=100) == 6

    def test_distance_two_halves_ii(self):
        edges = [
            _Edge(0, 1, latency=3, distance=0),
            _Edge(1, 0, latency=3, distance=2),
        ]
        assert _rec_mii(2, edges, upper=100) == 3

    def test_positive_cycle_detection(self):
        edges = [_Edge(0, 0, latency=5, distance=1)]
        assert _positive_cycle(1, edges, ii=4)
        assert not _positive_cycle(1, edges, ii=5)


class TestLoopAnalysis:
    INDEPENDENT = """double a[128];
double b[128];
int main() {
    int i;
    for (i = 0; i < 128; i++) {
        a[i] = b[i] * 2.0;
    }
    return 0;
}
"""

    RECURRENCE = """double a[128];
int main() {
    int i;
    for (i = 1; i < 128; i++) {
        a[i] = a[i-1] * 0.5 + 1.0;
    }
    return 0;
}
"""

    def test_independent_loop_hli_beats_gcc(self):
        fn, query = compile_for(self.INDEPENDENT)
        reports = analyze_loop_pipelining(fn, query)
        assert reports
        r = reports[0]
        # Conservative cross-iteration store->load recurrences inflate GCC's
        # bound; HLI has no memory recurrence at all.
        assert r.hli.rec_mii < r.gcc.rec_mii
        assert r.headroom >= 1.0
        # on a wide machine, the recurrence bound (not resources) is the
        # binding constraint, and there the HLI headroom is real
        wide = analyze_loop_pipelining(fn, query, issue_width=16)[0]
        assert wide.headroom > 1.0

    def test_true_recurrence_binds_both(self):
        fn, query = compile_for(self.RECURRENCE)
        reports = analyze_loop_pipelining(fn, query)
        r = next(rep for rep in reports if rep.hli.insns > 8)
        # the a[i-1] -> a[i] chain is real: HLI cannot dissolve it
        assert r.hli.rec_mii > 1
        assert r.hli.rec_mii <= r.gcc.rec_mii

    def test_res_mii_floor(self):
        fn, query = compile_for(self.INDEPENDENT)
        reports = analyze_loop_pipelining(fn, query, issue_width=4)
        for r in reports:
            assert r.gcc.res_mii == max(1, -(-r.gcc.insns // 4))
            assert r.gcc.mii >= r.gcc.res_mii

    def test_without_query_no_headroom(self):
        fn, _ = compile_for(self.INDEPENDENT)
        reports = analyze_loop_pipelining(fn, query=None)
        for r in reports:
            assert r.headroom == 1.0

    def test_loops_with_calls_skipped(self):
        src = """int g;
void tick() { g = g + 1; }
int main() {
    int i;
    for (i = 0; i < 8; i++) { tick(); }
    return g;
}
"""
        fn, query = compile_for(src)
        reports = analyze_loop_pipelining(fn, query)
        assert reports == []
