"""The whole-program driver: linked compilation, baselines, and caching."""

import pytest

from repro import obs
from repro.analysis.alias import analyze_points_to
from repro.difftest.incremental import canonical_rtl
from repro.driver.compile import CompileOptions, compile_source
from repro.driver.session import CompilationSession
from repro.driver.wpa import WholeProgramResult, compile_whole_program
from repro.frontend import parse_and_check
from repro.hli import faults
from repro.linker import analyze_unit, link_units
from repro.machine.executor import execute
from repro.obs import trace
from repro.workloads import wp_by_name

UNITS = [
    (
        "main.c",
        "int acc;\n"
        "extern int step(int k);\n"
        "int main() {\n"
        "    int i;\n"
        "    for (i = 1; i <= 5; i++) { acc = acc + step(i); }\n"
        "    return acc;\n"
        "}\n",
    ),
    (
        "lib.c",
        "int calls;\n"
        "int step(int k) {\n"
        "    calls = calls + 1;\n"
        "    return k * k + calls;\n"
        "}\n",
    ),
]


class TestResultShape:
    def test_units_link_and_image_populated(self):
        wp = compile_whole_program(UNITS)
        assert isinstance(wp, WholeProgramResult)
        assert list(wp.units) == ["main.c", "lib.c"]
        assert wp.image is not None
        assert wp.image_diagnostics == []
        assert {"main", "step"} <= set(wp.image.functions)
        assert set(wp.link.summaries) == {"main", "step"}
        assert wp.whole_program
        assert wp.summary_generations.keys() == wp.link.summaries.keys()

    def test_baseline_mode_skips_summary_consumption(self):
        pf = compile_whole_program(UNITS, whole_program=False)
        assert not pf.whole_program
        assert pf.summary_generations == {}
        # the link still runs: image and table are always produced
        assert pf.image is not None
        assert "step" in pf.link.table.symbols

    def test_total_dep_stats_sums_units(self):
        wp = compile_whole_program(UNITS)
        total = wp.total_dep_stats()
        per_unit = sum(c.total_dep_stats().call_tests for c in wp.units.values())
        assert total.call_tests == per_unit > 0


class TestSemantics:
    def test_wp_and_per_file_images_agree(self):
        wp = compile_whole_program(UNITS, whole_program=True)
        pf = compile_whole_program(UNITS, whole_program=False)
        r_wp = execute(wp.image, collect_trace=False)
        r_pf = execute(pf.image, collect_trace=False)
        assert (r_wp.ret, r_wp.output) == (r_pf.ret, r_pf.output)
        # acc = sum(k*k + calls) for k,calls in zip(1..5, 1..5) = 55 + 15
        assert r_wp.ret == 70

    def test_wp_deletes_call_edges_on_curated_workloads(self):
        for name in ("counters", "stages", "aliasing"):
            wl = wp_by_name(name)
            wp = compile_whole_program(wl.sources(), whole_program=True)
            pf = compile_whole_program(wl.sources(), whole_program=False)
            assert execute(wp.image, collect_trace=False).ret == (
                execute(pf.image, collect_trace=False).ret
            )
            assert wp.total_dep_stats().call_dep < pf.total_dep_stats().call_dep


class TestSessionIntegration:
    def test_wp_and_pf_artifacts_are_keyed_apart(self, tmp_path):
        session = CompilationSession(cache_dir=tmp_path)
        wp1 = compile_whole_program(UNITS, whole_program=True, session=session)
        assert session.stats.misses == len(UNITS)
        # the per-file baseline must not be served the WP artifacts:
        # the link salt keys them apart
        pf = compile_whole_program(UNITS, whole_program=False, session=session)
        assert session.stats.misses == 2 * len(UNITS)
        # rerunning WP with the same link state hits the cache
        wp2 = compile_whole_program(UNITS, whole_program=True, session=session)
        assert session.stats.misses == 2 * len(UNITS)
        assert session.stats.hits >= len(UNITS)
        r1 = execute(wp1.image, collect_trace=False)
        r2 = execute(wp2.image, collect_trace=False)
        rp = execute(pf.image, collect_trace=False)
        assert r1.ret == r2.ret == rp.ret

    def test_cached_wp_recompile_stays_linked(self, tmp_path):
        session = CompilationSession(cache_dir=tmp_path)
        cold = compile_whole_program(UNITS, whole_program=True, session=session)
        warm = compile_whole_program(UNITS, whole_program=True, session=session)
        assert cold.total_dep_stats().call_dep == warm.total_dep_stats().call_dep
        assert warm.lint_report().diagnostics == []


class TestGenerationAudit:
    def test_stale_summary_fault_skews_one_generation(self):
        clean = compile_whole_program(UNITS)
        with faults.inject(faults.STALE_SUMMARY):
            stale = compile_whole_program(UNITS)
        diffs = [
            fn
            for fn in clean.summary_generations
            if clean.summary_generations[fn] != stale.summary_generations[fn]
        ]
        assert len(diffs) == 1
        fn = diffs[0]
        assert stale.summary_generations[fn] == clean.summary_generations[fn] - 1


def _traced_build(sources, **kwargs) -> tuple[WholeProgramResult, int]:
    """Build with tracing on; also return this process's parse count."""
    obs.reset()
    try:
        wp = compile_whole_program(sources, CompileOptions(trace=True), **kwargs)
        parses = sum(
            1 for s in trace.iter_spans() if s.name == "frontend.parse_and_check"
        )
    finally:
        obs.reset()
    return wp, parses


class TestParseOnce:
    """Phase 2 takes over phase 1's AST, symbols and points-to result."""

    @pytest.mark.parametrize("with_session", [False, True])
    def test_serial_build_parses_each_unit_once(self, with_session):
        sources = wp_by_name("aliasing").sources()
        session = CompilationSession() if with_session else None
        wp, parses = _traced_build(sources, session=session)
        assert parses == len(sources)
        for comp in wp.units.values():
            assert "parse" not in comp.pipeline_stats.passes_run
        # a warm rebuild restores from the cache and parses only in phase 1
        if session is not None:
            _, parses = _traced_build(sources, session=session)
            assert parses == len(sources)
            assert session.stats.hits_memory == len(sources)

    @pytest.mark.parametrize("with_session", [False, True])
    def test_phase2_leaves_the_link_inputs_intact(self, with_session):
        for name in ("counters", "stages", "aliasing"):
            session = CompilationSession() if with_session else None
            wp = compile_whole_program(wp_by_name(name).sources(), session=session)
            units = wp.link.units
            assert link_units(units).fingerprint() == wp.link.fingerprint()
            # re-deriving every local summary from the shared ASTs and
            # symbol tables links to the same result ...
            again = [analyze_unit(u.program, u.table, u.filename) for u in units]
            assert link_units(again).fingerprint() == wp.link.fingerprint()
            # ... and the shared points-to results are still what the
            # analysis computes on them
            for unit in units:
                fresh = analyze_points_to(unit.program, unit.table)
                assert unit.pts.points_to == fresh.points_to
                assert unit.pts.addressable == fresh.addressable

    def test_handed_over_analysis_compiles_like_a_fresh_parse(self):
        sources = wp_by_name("aliasing").sources()
        wp = compile_whole_program(sources)
        for filename, source in sources:
            program, table = parse_and_check(source, filename)
            unit = analyze_unit(program, table, filename=filename)
            effects = wp.units[filename].external_effects
            fresh = compile_source(source, filename, external_effects=effects)
            handed = compile_source(
                source, filename, external_effects=effects, analysis=unit
            )
            assert canonical_rtl(handed.rtl) == canonical_rtl(fresh.rtl)
            assert handed.total_dep_stats() == fresh.total_dep_stats()
            assert handed.frontend.pts is unit.pts
