"""Parallel fan-out: compile_many ordering/equivalence, worker policy."""

from __future__ import annotations

import os
import time

import pytest

from repro import CompileOptions
from repro.backend.ddg import DDGMode
from repro.difftest.incremental import canonical_rtl
from repro.driver import session as session_mod
from repro.driver.session import (
    CompilationSession,
    CompileJob,
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


def _exit_at_once(*_args):
    os._exit(17)


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise KeyError(f"item {x}")
    return x


def _no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _jobs(n: int = 4) -> list[CompileJob]:
    return [
        CompileJob(b.source, b.name, CompileOptions(mode=DDGMode.COMBINED))
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
        # a forked child inherits the patch and dies before compiling
        monkeypatch.setattr(session_mod, "_compile_partition_worker", _exit_at_once)
        sess = CompilationSession()
        par = sess.compile_many(_jobs(3), max_workers=2)
        assert [c.filename for c in par] == [c.filename for c in serial]
        for a, b in zip(par, serial):
            assert canonical_rtl(a.rtl) == canonical_rtl(b.rtl)
        # the pool broke, so the parent compiled (and stored) every job
        assert sess.stats.stores == 3


def _manifest_key(job: CompileJob) -> str:
    return cache_key(job.source, job.filename)


class TestWarmProbe:
    def test_warm_batch_reads_each_manifest_once(self, tmp_path, monkeypatch):
        jobs = _jobs(2)
        CompilationSession(cache_dir=tmp_path / "c").compile_many(jobs, max_workers=1)
        sess = CompilationSession(cache_dir=tmp_path / "c")
        reads: list[str] = []
        get = sess.store.get

        def counting_get(key):
            reads.append(key)
            return get(key)

        monkeypatch.setattr(sess.store, "get", counting_get)
        warm = sess.compile_many(jobs, max_workers=2)
        manifests = sorted(_manifest_key(job) for job in jobs)
        assert [c.cache_state for c in warm] == ["disk", "disk"]
        assert sorted(k for k in reads if k in manifests) == manifests

    def test_corrupt_manifest_is_rebuilt_in_the_parent(self, tmp_path):
        jobs = _jobs(2)
        filled = CompilationSession(cache_dir=tmp_path / "c")
        filled.compile_many(jobs, max_workers=1)
        filled.store.put(_manifest_key(jobs[0]), b"garbage")
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
        assert _no_children_left()

    def test_a_free_child_takes_the_next_item(self, tmp_path):
        # item 0 holds its child until the last item has run, so the
        # other child must have taken every other item
        done = tmp_path / "done"

        def run(x: int) -> int:
            if x == 0:
                deadline = time.monotonic() + 30
                while not done.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
            elif x == 5:
                done.touch()
            return os.getpid()

        out = parallel_map(run, list(range(6)), max_workers=2)
        assert out[0] not in out[1:] and len(set(out[1:])) == 1
        assert os.getpid() not in out
        assert _no_children_left()

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs the affinity API and two usable CPUs",
    )
    def test_children_keep_off_the_parents_cpu_while_meanwhile_runs(
        self, tmp_path
    ):
        pinned, started = tmp_path / "pinned", tmp_path / "started"

        def wait_for(path) -> None:
            deadline = time.monotonic() + 30
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.005)

        def child(_item):
            wait_for(pinned)
            during = os.sched_getaffinity(0)
            started.touch()
            deadline = time.monotonic() + 30
            while os.sched_getaffinity(0) == during and time.monotonic() < deadline:
                time.sleep(0.005)
            return during, os.sched_getaffinity(0)

        def meanwhile() -> None:
            pinned.touch()  # every child is forked, and kept off this CPU
            wait_for(started)

        full = os.sched_getaffinity(0)
        [(during, after)] = parallel_map(
            child, [None], max_workers=1, meanwhile=meanwhile
        )
        assert during < full and len(during) == len(full) - 1
        assert after == full
        assert _no_children_left()

    def test_more_items_than_one_feed_chunk(self):
        # the first chunk of indices is written before the fork, the
        # rest while the children drain the pipe
        items = list(range(3 * session_mod._PIPE_BUF))
        assert parallel_map(_square, items, max_workers=2) == [x * x for x in items]
        assert _no_children_left()

    def test_children_read_unpicklable_work_from_memory(self):
        # neither a lambda nor a lock pickles; forked children inherit both
        import threading

        locks = [threading.Lock(), threading.Lock()]
        assert parallel_map(lambda lk: lk.locked(), locks, max_workers=2) == [
            False, False
        ]

    def test_child_exception_re_raises_with_its_type(self):
        with pytest.raises(KeyError, match="item 3"):
            parallel_map(_fail_on_three, list(range(6)), max_workers=2)
        assert _no_children_left()

    def test_dead_child_is_a_broken_pool(self):
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            parallel_map(_exit_at_once, list(range(4)), max_workers=2)
        assert _no_children_left()

    def test_children_are_reaped_when_meanwhile_raises(self):
        def meanwhile():
            raise RuntimeError("parent share failed")

        with pytest.raises(RuntimeError, match="parent share failed"):
            parallel_map(_square, list(range(4)), max_workers=2, meanwhile=meanwhile)
        assert _no_children_left()

    def test_runs_inline_while_another_thread_is_alive(self):
        import threading

        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            ran: list[int] = []
            out = parallel_map(
                _pid, [1, 2], max_workers=2,
                meanwhile=lambda: ran.append(os.getpid()),
            )
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert out == ran + ran == [os.getpid()] * 2

    def test_no_child_outlives_a_normal_call(self):
        assert parallel_map(_square, [1, 2, 3], max_workers=3) == [1, 4, 9]
        assert _no_children_left()


class TestWorkerPolicy:
    def test_explicit_count_capped_by_items(self):
        assert resolve_workers(8, 3) == 3

    def test_zero_means_per_core(self, monkeypatch):
        # one per CPU this process may run on, not per CPU of the host
        monkeypatch.setattr(session_mod, "_usable_cpus", lambda: 3)
        assert resolve_workers(0, 10_000) == 3
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_workers(None, 10_000) == 3

    def test_usable_cpus_follow_the_affinity_mask(self):
        if hasattr(os, "sched_getaffinity"):
            assert session_mod._usable_cpus() == len(os.sched_getaffinity(0))
        else:
            assert session_mod._usable_cpus() == (os.cpu_count() or 1)

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
