"""Parallel fan-out: compile_many ordering/equivalence, worker policy."""

from __future__ import annotations

import pytest

from repro import CompileOptions
from repro.backend.ddg import DDGMode
from repro.driver.session import (
    CompilationSession,
    parallel_map,
    resolve_workers,
)
from repro.driver.timing import time_benchmark
from repro.workloads.suite import BENCHMARKS


def _square(x: int) -> int:
    return x * x


def _jobs(n: int = 4) -> list[tuple]:
    return [
        (b.source, b.name, CompileOptions(mode=DDGMode.COMBINED))
        for b in BENCHMARKS[:n]
    ]


class TestCompileMany:
    def test_parallel_results_match_serial_in_order(self, tmp_path):
        serial = CompilationSession().compile_many(_jobs(), max_workers=1)
        par = CompilationSession(cache_dir=tmp_path / "c").compile_many(
            _jobs(), max_workers=2
        )
        assert [c.filename for c in par] == [c.filename for c in serial]
        for a, b in zip(par, serial):
            assert {n: [i.op for i in f.insns] for n, f in a.rtl.functions.items()} \
                == {n: [i.op for i in f.insns] for n, f in b.rtl.functions.items()}
            assert {n: vars(s) for n, s in a.dep_stats.items()} \
                == {n: vars(s) for n, s in b.dep_stats.items()}

    def test_fanout_shares_the_disk_cache(self, tmp_path):
        sess = CompilationSession(cache_dir=tmp_path / "c")
        cold = sess.compile_many(_jobs(), max_workers=2)
        warm = sess.compile_many(_jobs(), max_workers=2)
        assert all(c.cache_state == "cold" for c in cold)
        assert all(c.cache_state == "disk" for c in warm)
        assert sess.stats.hits_disk == len(warm)

    def test_bad_job_shape_rejected(self):
        with pytest.raises(ValueError, match="source, filename"):
            CompilationSession().compile_many([("only-source",)])

    def test_function_granularity_matches_serial(self, tmp_path):
        serial = CompilationSession().compile_many(_jobs(2), max_workers=1)
        sess = CompilationSession(cache_dir=tmp_path / "c")
        par = sess.compile_many(_jobs(2), max_workers=2, granularity="function")
        for a, b in zip(par, serial):
            assert {n: [i.op for i in f.insns] for n, f in a.rtl.functions.items()} \
                == {n: [i.op for i in f.insns] for n, f in b.rtl.functions.items()}
            assert {n: vars(s) for n, s in a.dep_stats.items()} \
                == {n: vars(s) for n, s in b.dep_stats.items()}
        # the fan-out populated the per-function back-end tier: a warm
        # serial recompile splices every function
        warm = sess.compile_many(_jobs(2), max_workers=1)
        assert all(
            v.startswith("be:") or v.startswith("fe:")
            for c in warm
            for v in c.fn_cache_states.values()
        )


class TestDiskBudgetAcrossWorkers:
    BUDGET = 40_000

    @pytest.mark.parametrize("pool", ["file", "partitions"])
    def test_pool_batch_respects_disk_budget(self, tmp_path, pool):
        cache = tmp_path / "c"
        sess = CompilationSession(cache_dir=cache, max_disk_bytes=self.BUDGET)
        jobs = _jobs(6)
        if pool == "file":
            sess.compile_many(jobs, max_workers=2, granularity="file")
        else:
            sess.compile_partitions([jobs[:3], jobs[3:]], max_workers=2)
        on_disk = sum(p.stat().st_size for p in cache.rglob("*.hlic"))
        assert 0 < on_disk <= self.BUDGET


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(10))
        assert parallel_map(_square, items, max_workers=3) == [
            x * x for x in items
        ]

    def test_serial_path_runs_inline(self):
        assert parallel_map(_square, [2, 3], max_workers=1) == [4, 9]


class TestWorkerPolicy:
    def test_explicit_count_capped_by_items(self):
        assert resolve_workers(8, 3) == 3

    def test_zero_means_per_core(self):
        import os

        assert resolve_workers(0, 10_000) == (os.cpu_count() or 1)

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert resolve_workers(None, 8) == 2
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_workers(None, 8) >= 1

    def test_at_least_one(self):
        assert resolve_workers(1, 0) == 1


class TestTimingSharesFrontend:
    def test_four_compiles_one_parse(self):
        sess = CompilationSession()
        spec = BENCHMARKS[0]
        t = time_benchmark(spec, sess)
        # 2 machines x 2 modes = 4 compiles, but only one cold front end
        assert sess.stats.misses == 1
        assert sess.stats.hits_memory == 3
        assert t.results_match
