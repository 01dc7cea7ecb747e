"""Parallel fan-out: compile_many ordering/equivalence, worker policy."""

from __future__ import annotations

import os

import pytest

from repro import CompileOptions
from repro.backend.ddg import DDGMode
from repro.difftest.incremental import canonical_rtl
from repro.driver.passes import build_pipeline
from repro.driver.session import (
    CompilationSession,
    cache_key,
    parallel_map,
    resolve_workers,
)
from repro.driver.timing import time_benchmark
from repro.workloads.suite import BENCHMARKS


def _square(x: int) -> int:
    return x * x


def _pid(_item) -> int:
    return os.getpid()


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
        # the parent compiled every other job itself (memory tier); the
        # worker's jobs come back through the shared disk tier
        assert [c.cache_state for c in warm] == ["memory", "disk"] * 2
        assert sess.stats.hits_disk == sess.stats.hits_memory == 2

    def test_bad_job_shape_rejected(self):
        with pytest.raises(ValueError, match="source, filename"):
            CompilationSession().compile_many([("only-source",)])

    def test_narrow_batch_matches_serial_then_restores_from_be(self, tmp_path):
        serial = CompilationSession().compile_many(_jobs(2), max_workers=1)
        sess = CompilationSession(cache_dir=tmp_path / "c")
        par = sess.compile_many(_jobs(2), max_workers=2)
        for a, b in zip(par, serial):
            assert {n: [i.op for i in f.insns] for n, f in a.rtl.functions.items()} \
                == {n: [i.op for i in f.insns] for n, f in b.rtl.functions.items()}
            assert {n: vars(s) for n, s in a.dep_stats.items()} \
                == {n: vars(s) for n, s in b.dep_stats.items()}
        # the pool workers populated the per-function back-end tier: a
        # warm serial recompile restores every function from it
        warm = sess.compile_many(_jobs(2), max_workers=1)
        states = [v for c in warm for v in c.fn_cache_states.values()]
        assert states and all(v.startswith("be:") for v in states)

    def test_warm_batch_is_served_in_the_parent(self, tmp_path):
        CompilationSession(cache_dir=tmp_path / "c").compile_many(
            _jobs(), max_workers=2
        )
        sess = CompilationSession(cache_dir=tmp_path / "c")
        warm = sess.compile_many(_jobs(), max_workers=2)
        assert [c.cache_state for c in warm] == ["disk"] * len(warm)
        assert sess.stats.be_hits_disk == sum(len(c.rtl.functions) for c in warm)
        assert sess.stats.fe_decodes == sess.stats.frontend_decodes == 0

    def test_dead_worker_batch_recompiles_in_parent(self, monkeypatch):
        serial = CompilationSession().compile_many(_jobs(3), max_workers=1)
        monkeypatch.setenv("REPRO_TEST_KILL_WORKER", "1")
        sess = CompilationSession()
        par = sess.compile_many(_jobs(3), max_workers=2)
        assert [c.filename for c in par] == [c.filename for c in serial]
        for a, b in zip(par, serial):
            assert canonical_rtl(a.rtl) == canonical_rtl(b.rtl)
        # the pool broke, so the parent compiled (and stored) every job
        assert sess.stats.stores == 3


def _manifest_key(job: tuple) -> str:
    source, filename, opts = job
    return cache_key(source, filename, build_pipeline(opts))


class TestWarmProbe:
    def test_warm_batch_reads_each_manifest_once(self, tmp_path, monkeypatch):
        jobs = _jobs(2)
        CompilationSession(cache_dir=tmp_path / "c").compile_many(jobs, max_workers=1)
        sess = CompilationSession(cache_dir=tmp_path / "c")
        reads: list[str] = []
        lookup = sess._lookup

        def counting_lookup(key):
            reads.append(key)
            return lookup(key)

        monkeypatch.setattr(sess, "_lookup", counting_lookup)
        warm = sess.compile_many(jobs, max_workers=2)
        manifests = sorted(_manifest_key(job) for job in jobs)
        assert [c.cache_state for c in warm] == ["disk", "disk"]
        assert sorted(k for k in reads if k in manifests) == manifests

    def test_corrupt_manifest_is_rebuilt_in_the_parent(self, tmp_path):
        jobs = _jobs(2)
        filled = CompilationSession(cache_dir=tmp_path / "c")
        filled.compile_many(jobs, max_workers=1)
        filled._disk_path(_manifest_key(jobs[0])).write_bytes(b"garbage")
        sess = CompilationSession(cache_dir=tmp_path / "c")
        comps = sess.compile_many(jobs, max_workers=2)
        assert [c.cache_state for c in comps] == ["incremental", "disk"]
        # both stayed here: the rebuilt manifest is this session's store
        assert (sess.stats.corrupt, sess.stats.misses, sess.stats.stores) == (1, 1, 1)


class TestDiskBudgetAcrossWorkers:
    BUDGET = 40_000

    @pytest.mark.parametrize("pool", ["file", "partitions"])
    def test_pool_batch_respects_disk_budget(self, tmp_path, pool):
        cache = tmp_path / "c"
        sess = CompilationSession(cache_dir=cache, max_disk_bytes=self.BUDGET)
        jobs = _jobs(6)
        if pool == "file":
            sess.compile_many(jobs, max_workers=2)
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

    def test_meanwhile_runs_here_while_one_worker_forks(self):
        ran: list[int] = []
        out = parallel_map(
            _pid, [None], max_workers=1,
            meanwhile=lambda: ran.append(os.getpid()),
        )
        assert ran == [os.getpid()] and out[0] != os.getpid()


class TestWorkerPolicy:
    def test_explicit_count_capped_by_items(self):
        assert resolve_workers(8, 3) == 3

    def test_zero_means_per_core(self):
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
