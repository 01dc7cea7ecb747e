"""The fixed compile pipeline: pass order, query rebuilds, cache-key fingerprints."""

from __future__ import annotations

import hashlib

import pytest

from repro import CompileOptions, binfmt, compile_source
from repro.analysis.builder import HLIBuilder
from repro.backend.ddg import DDGMode
from repro.backend.passes import OptStats
from repro.driver.incremental import function_keys
from repro.driver.session import (
    CACHE_VERSION,
    CompilationSession,
    _decode_manifest,
    _digest,
)
from repro.frontend import parse_and_check
from tests.conftest import SIMPLE_MAIN


class TestPipelineOrdering:
    def test_default_pipeline_runs_in_declared_order(self):
        comp = compile_source(
            SIMPLE_MAIN,
            "simple.c",
            CompileOptions(mode=DDGMode.COMBINED, cse=True, licm=True, unroll=2),
        )
        assert comp.pipeline_stats is not None
        assert comp.pipeline_stats.passes_run == [
            "parse", "hli-build", "lower", "map",
            "unroll", "cse", "licm", "schedule",
        ]

    def test_pipeline_without_schedule_skips_dep_stats(self):
        comp = compile_source(SIMPLE_MAIN, "simple.c", CompileOptions(schedule=False))
        assert comp.pipeline_stats.passes_run == ["parse", "hli-build", "lower", "map"]
        assert comp.dep_stats == {}
        assert comp.rtl is not None


class TestDeclaredInvalidation:
    """Query indices rebuild once before the next pass that reads them."""

    def test_no_opt_passes_no_rebuilds(self):
        comp = compile_source(
            SIMPLE_MAIN, "simple.c", CompileOptions(mode=DDGMode.COMBINED)
        )
        assert comp.pipeline_stats.rebuilds == {}

    def test_single_mutating_pass_rebuilds_exactly_once(self):
        comp = compile_source(
            SIMPLE_MAIN,
            "simple.c",
            CompileOptions(mode=DDGMode.COMBINED, unroll=2),
        )
        # unroll invalidates queries; schedule is the next consumer
        assert comp.pipeline_stats.rebuilds == {"queries": 1}

    def test_each_consumer_after_invalidation_rebuilds_once(self):
        comp = compile_source(
            SIMPLE_MAIN,
            "simple.c",
            CompileOptions(mode=DDGMode.COMBINED, cse=True, licm=True),
        )
        # cse invalidates -> licm rebuilds; licm invalidates -> schedule
        # rebuilds: exactly two, never one per function or per use
        assert comp.pipeline_stats.rebuilds == {"queries": 2}

    def test_gcc_mode_cse_still_invalidates_for_maintenance(self):
        # cse deletes insns and maintains the tables in every mode, so
        # the scheduler must get fresh queries even in GCC mode
        comp = compile_source(
            SIMPLE_MAIN,
            "simple.c",
            CompileOptions(mode=DDGMode.GCC, cse=True),
        )
        assert comp.pipeline_stats.rebuilds == {"queries": 1}
        assert comp.dep_stats


class TestGccModeUnroll:
    """Regression: GCC-mode run_unroll must get query=None like cse/licm.

    Handing it a live query made GCC-mode compiles consult (and
    invalidate) HLI that the mode promises not to use.
    """

    def test_gcc_unroll_is_a_noop_and_consults_no_hli(self):
        comp = compile_source(
            SIMPLE_MAIN,
            "simple.c",
            CompileOptions(mode=DDGMode.GCC, unroll=4),
        )
        assert comp.opt_stats is not None
        assert comp.opt_stats.unroll.loops_unrolled == 0
        # no query consulted -> nothing invalidated -> no rebuild
        assert comp.pipeline_stats.rebuilds == {}

    def test_gcc_unroll_matches_gcc_baseline_code(self):
        base = compile_source(SIMPLE_MAIN, "simple.c", CompileOptions(mode=DDGMode.GCC))
        unrolled = compile_source(
            SIMPLE_MAIN, "simple.c", CompileOptions(mode=DDGMode.GCC, unroll=4)
        )
        for name, fn in base.rtl.functions.items():
            assert [i.op for i in fn.insns] == [
                i.op for i in unrolled.rtl.functions[name].insns
            ]

    def test_combined_unroll_does_unroll(self):
        comp = compile_source(
            SIMPLE_MAIN,
            "simple.c",
            CompileOptions(mode=DDGMode.COMBINED, unroll=2),
        )
        assert comp.opt_stats.unroll.loops_unrolled > 0


class TestOptStatsField:
    def test_opt_stats_is_a_declared_optional_field(self):
        from dataclasses import fields

        from repro.driver.compile import Compilation

        assert "opt_stats" in {f.name for f in fields(Compilation)}

    def test_none_without_opt_passes(self):
        comp = compile_source(SIMPLE_MAIN, "simple.c", CompileOptions())
        assert comp.opt_stats is None

    def test_populated_with_opt_passes(self):
        comp = compile_source(
            SIMPLE_MAIN, "simple.c", CompileOptions(mode=DDGMode.COMBINED, cse=True)
        )
        assert isinstance(comp.opt_stats, OptStats)


# Query-index rebuilds per (mode, unroll, cse, licm), for
# (schedule, lint) = (off, off), (off, on), (on, off), (on, on).
# cse and licm leave the indices stale in every mode, unroll only when it
# reads HLI; schedule, lint and (outside gcc mode) the optimizers read them.
_REBUILDS = {
    ("gcc", 1, False, False): (0, 0, 0, 0),
    ("gcc", 1, False, True): (0, 1, 1, 1),
    ("gcc", 1, True, False): (0, 1, 1, 1),
    ("gcc", 1, True, True): (0, 1, 1, 1),
    ("gcc", 2, False, False): (0, 0, 0, 0),
    ("gcc", 2, False, True): (0, 1, 1, 1),
    ("gcc", 2, True, False): (0, 1, 1, 1),
    ("gcc", 2, True, True): (0, 1, 1, 1),
    ("hli", 1, False, False): (0, 0, 0, 0),
    ("hli", 1, False, True): (0, 1, 1, 1),
    ("hli", 1, True, False): (0, 1, 1, 1),
    ("hli", 1, True, True): (1, 2, 2, 2),
    ("hli", 2, False, False): (0, 1, 1, 1),
    ("hli", 2, False, True): (1, 2, 2, 2),
    ("hli", 2, True, False): (1, 2, 2, 2),
    ("hli", 2, True, True): (2, 3, 3, 3),
    ("combined", 1, False, False): (0, 0, 0, 0),
    ("combined", 1, False, True): (0, 1, 1, 1),
    ("combined", 1, True, False): (0, 1, 1, 1),
    ("combined", 1, True, True): (1, 2, 2, 2),
    ("combined", 2, False, False): (0, 1, 1, 1),
    ("combined", 2, False, True): (1, 2, 2, 2),
    ("combined", 2, True, False): (1, 2, 2, 2),
    ("combined", 2, True, True): (2, 3, 3, 3),
}

_SWITCHES = [
    (row, schedule, lint)
    for row in _REBUILDS
    for schedule in (False, True)
    for lint in (False, True)
]


def test_rebuild_table_covers_every_combination():
    counts = [n for row in _REBUILDS.values() for n in row]
    assert len(counts) == 96
    assert {n: counts.count(n) for n in set(counts)} == {0: 28, 1: 42, 2: 20, 3: 6}


@pytest.mark.parametrize(
    "row,schedule,lint",
    _SWITCHES,
    ids=[
        f"{m}-u{u}-cse{int(c)}-licm{int(l)}-sched{int(s)}-lint{int(t)}"
        for (m, u, c, l), s, t in _SWITCHES
    ],
)
def test_fixed_pipeline_passes_and_rebuilds(row, schedule, lint):
    """The options pick which passes of the one fixed order run, and how
    often the query indices rebuild — the same cold, via a session, and
    on a session's warm restore."""
    mode, unroll, cse, licm = row
    opts = CompileOptions(
        mode=DDGMode(mode), unroll=unroll, cse=cse, licm=licm,
        schedule=schedule, lint=lint,
    )
    backend = ["map"]
    backend += ["unroll"] if unroll > 1 else []
    backend += ["cse"] if cse else []
    backend += ["licm"] if licm else []
    backend += ["schedule"] if schedule else []
    backend += ["lint"] if lint else []
    n = _REBUILDS[row][2 * schedule + lint]
    rebuilds = {"queries": n} if n else {}

    cold = compile_source(SIMPLE_MAIN, "simple.c", opts).pipeline_stats
    assert cold.passes_run == ["parse", "hli-build", "lower", *backend]
    assert cold.rebuilds == rebuilds
    assert cold.cached_prefix == ()

    sess = CompilationSession()
    first = sess.compile(SIMPLE_MAIN, "simple.c", opts).pipeline_stats
    assert first.passes_run == cold.passes_run
    assert first.rebuilds == rebuilds
    assert first.function_runs == cold.function_runs
    warm = sess.compile(SIMPLE_MAIN, "simple.c", opts).pipeline_stats
    assert warm.passes_run == backend
    assert warm.rebuilds == rebuilds
    assert warm.cached_prefix == ("parse", "hli-build", "lower")
    assert warm.function_runs == {p: [] for p in backend if p != "lint"}


def _fp(passes: str) -> str:
    return hashlib.sha256(passes.encode()).hexdigest()[:16]


class TestPassFingerprints:
    """Cache keys fold in the pass list as literal ``name@version`` text,
    so renaming or reordering a pass changes every key on purpose."""

    FRONTEND = "parse@1|hli-build@1|lower@1"

    def test_manifest_and_front_end_keys(self):
        sess = CompilationSession()
        sess.compile(SIMPLE_MAIN, "simple.c")
        key = _digest(b"repro-hli-cache", _fp(self.FRONTEND), "", "simple.c", SIMPLE_MAIN)
        blob, _tier = sess.store.get(key)
        assert blob is not None
        program, table = parse_and_check(SIMPLE_MAIN, "simple.c")
        builder = HLIBuilder(program, table)
        salt = f"{CACHE_VERSION}:{binfmt.fingerprint()}:{_fp(self.FRONTEND)}:simple.c:"
        keys = function_keys(
            SIMPLE_MAIN, program, table, builder.pts, builder.refmod, salt=salt
        )
        assert _decode_manifest(blob).fe_keys == keys.fe
        assert all(sess.store.contains(k) for k in keys.fe.values())

    def test_back_end_key(self):
        sess = CompilationSession()
        opts = CompileOptions(cse=True, licm=True, unroll=2)
        sess.compile(SIMPLE_MAIN, "simple.c", opts)
        key = _digest(b"repro-hli-cache", _fp(self.FRONTEND), "", "simple.c", SIMPLE_MAIN)
        fe_key = _decode_manifest(sess.store.get(key)[0]).fe_keys["main"]
        be_key = _digest(
            b"repro-fn-be",
            fe_key,
            _fp("map@1|unroll@1|cse@1|licm@1|schedule@1"),
            "combined",
            "2",
            "r4600_latency",
        )
        assert sess.store.contains(be_key)
