"""Partitioned parallel back end: parity with ``jobs=1`` and resilience.

The partitioner is a pure scheduling decision, so every program in the
``gen-multiunit-v1`` registry set must compile to the *same* output
under ``jobs=N`` + partitioning as under the serial path: per-unit RTL
alpha-equivalent, ``DepStats`` equal, whole-program lint verdicts
(HLI009-HLI012) equal, and the canonical encoding of the merged image
byte-identical.  (Raw RTL bytes are process-history-dependent — reg/uid
ids come from global atomic counters — so "identical bytes" is asserted
on the canonical alpha-renamed form produced by ``canonical_rtl``.)

Worker death must never lose work: ``REPRO_TEST_KILL_WORKER`` makes
every pool worker exit immediately, and the batch must still complete
through the in-process fallback.  A whole ``compile_whole_program``
build must complete too, in a subprocess whose every forked child dies
at birth.

The calling process is one of the workers: it compiles the heaviest
partition itself, from the analyses it already holds, while a pool of
one process fewer compiles the rest.
"""

import concurrent.futures
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.bench.registry import materialize
from repro.difftest.incremental import canonical_rtl
from repro.driver import session as session_mod
from repro.driver.compile import CompileOptions
from repro.driver.session import CompilationSession, CompileJob
from repro.driver.wpa import compile_whole_program
from repro.obs import trace

PROGRAMS = {p.name: p for p in materialize("gen-multiunit-v1")}
#: every 8-16-unit program plus a spread of the 3-unit ones — enough to
#: exercise multi-partition plans without recompiling the whole set
PARITY_NAMES = sorted(
    name for name, p in PROGRAMS.items()
    if p.profile == "multiunit-large" or name.endswith(("-000", "-005", "-011"))
)


def _image_bytes(result) -> bytes:
    return json.dumps(canonical_rtl(result.image), sort_keys=True).encode()


def _lint_rules(result) -> list[str]:
    return sorted({d.rule.rule_id for d in result.lint_report().diagnostics})


class TestPartitionedParity:
    @pytest.mark.parametrize("name", PARITY_NAMES)
    def test_partitioned_matches_serial(self, name):
        sources = list(PROGRAMS[name].units)
        opts = CompileOptions()
        serial = compile_whole_program(
            sources, opts, session=CompilationSession()
        )
        part = compile_whole_program(
            sources, opts, session=CompilationSession(),
            jobs=2, partition="balanced",
        )

        assert part.partition_plan is not None
        assert part.partition_plan.n_partitions >= 2
        assert list(serial.units) == list(part.units)
        for fname in serial.units:
            assert (
                canonical_rtl(serial.units[fname].rtl)
                == canonical_rtl(part.units[fname].rtl)
            ), f"{name}: RTL diverges in {fname}"
        assert serial.total_dep_stats() == part.total_dep_stats()
        assert _lint_rules(serial) == _lint_rules(part)
        assert _image_bytes(serial) == _image_bytes(part)

    def test_1to1_mode_also_at_parity(self):
        prog = PROGRAMS[PARITY_NAMES[0]]
        sources = list(prog.units)
        opts = CompileOptions()
        serial = compile_whole_program(sources, opts, session=CompilationSession())
        part = compile_whole_program(
            sources, opts, session=CompilationSession(), jobs=2, partition="1to1"
        )
        assert part.partition_plan.n_partitions == len(sources)
        assert _image_bytes(serial) == _image_bytes(part)
        assert serial.total_dep_stats() == part.total_dep_stats()

    def test_warm_partitioned_run_hits_shared_cache(self, tmp_path):
        prog = PROGRAMS[PARITY_NAMES[0]]
        sources = list(prog.units)
        opts = CompileOptions()
        cold_sess = CompilationSession(cache_dir=tmp_path / "wpa")
        compile_whole_program(
            sources, opts, session=cold_sess, jobs=2, partition="balanced"
        )
        # fresh session, same disk tier: every unit must come back as a
        # parent-side hit — partition boundaries must not fragment keys
        warm_sess = CompilationSession(cache_dir=tmp_path / "wpa")
        compile_whole_program(
            sources, opts, session=warm_sess, jobs=2, partition="balanced"
        )
        assert warm_sess.stats.misses == 0
        assert warm_sess.stats.hits_disk == len(sources)


class TestWorkerDeath:
    def test_partition_batch_completes_via_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KILL_WORKER", "1")
        sess = CompilationSession()
        partitions = [
            [("int a() { return 1; }", "a.c"), ("int b() { return 2; }", "b.c")],
            [("int c() { return 3; }", "c.c")],
        ]
        results = sess.compile_partitions(partitions, max_workers=2)
        assert [len(part) for part in results] == [2, 1]
        for part in results:
            for comp in part:
                assert comp is not None and comp.rtl.functions
        # every job was compiled in-parent after the pool broke
        assert sess.stats.misses == 3

    def test_whole_program_build_survives_dead_workers(self):
        # Every process forked after the serial build dies at birth, in a
        # subprocess so the hook cannot outlive the test.  Phase 1 runs in
        # the parent, and phase 2 falls back to compiling in the parent.
        script = textwrap.dedent(
            """
            import json, os
            from repro import obs
            from repro.bench.registry import materialize
            from repro.difftest.incremental import canonical_rtl
            from repro.driver.compile import CompileOptions
            from repro.driver.wpa import compile_whole_program

            def form(result):
                return json.dumps([
                    {f: canonical_rtl(c.rtl) for f, c in result.units.items()},
                    canonical_rtl(result.image),
                    {f: vars(c.total_dep_stats()) for f, c in result.units.items()},
                ], sort_keys=True)

            sources = list(materialize("gen-multiunit-v1")[0].units)
            serial = compile_whole_program(sources, CompileOptions())
            os.register_at_fork(after_in_child=lambda: os._exit(17))
            obs.enable()
            part = compile_whole_program(
                sources, CompileOptions(), jobs=2, partition="balanced"
            )
            fallbacks = obs.metrics.counters().get("session.partition.fallback", 0)
            spans = list(obs.trace.iter_spans())
            parses = [s for s in spans if s.name == "frontend.parse_and_check"]
            compiled = sorted(
                s.attrs["file"] for s in spans if s.name == "session.compile"
            )
            assert part.partition_plan.n_partitions >= 2
            # the parent's own partition never went to the pool
            assert fallbacks == part.partition_plan.n_partitions - 1, fallbacks
            # every unit compiled here, on its phase-1 analysis: no re-parse
            assert compiled == sorted(f for f, _ in sources), compiled
            assert len(parses) == len(sources), len(parses)
            assert form(part) == form(serial)
            print("parity")
            """
        )
        env = dict(os.environ)
        env.pop("REPRO_TEST_KILL_WORKER", None)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert proc.stdout.split() == ["parity"]

    def test_healthy_pool_not_affected(self):
        sess = CompilationSession()
        partitions = [
            [("int a() { return 1; }", "a.c")],
            [("int b() { return 2; }", "b.c")],
        ]
        results = sess.compile_partitions(partitions, max_workers=2)
        names = [list(c.rtl.functions) for part in results for c in part]
        assert names == [["a"], ["b"]]


def _recording_pool(monkeypatch, events: list) -> list[dict]:
    """Patch the pool class ``parallel_map`` uses; return one record per
    pool (its worker count and submitted calls), appending ``"pool"`` to
    ``events`` when one is created."""
    pools: list[dict] = []
    real = concurrent.futures.ProcessPoolExecutor

    class RecordingPool(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            events.append("pool")
            pools.append({"workers": kwargs.get("max_workers"), "calls": []})

        def submit(self, fn, *args, **kwargs):
            pools[-1]["calls"].append((fn, args))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools


def _compiled_here() -> list[str]:
    return sorted(
        s.attrs["file"] for s in trace.iter_spans() if s.name == "session.compile"
    )


class TestParentWork:
    def test_parent_parses_once_and_forks_only_the_partition_pool(
        self, monkeypatch
    ):
        sources = list(PROGRAMS[PARITY_NAMES[0]].units)
        pools = _recording_pool(monkeypatch, [])
        monkeypatch.setattr(session_mod, "_WORKER_SESSIONS", {})
        obs.reset()
        try:
            part = compile_whole_program(
                sources, CompileOptions(trace=True), session=CompilationSession(),
                jobs=2, partition="balanced",
            )
            parses = sum(
                1 for s in trace.iter_spans() if s.name == "frontend.parse_and_check"
            )
            compiled = _compiled_here()
        finally:
            obs.reset()
        plan = part.partition_plan
        assert plan.n_partitions >= 2
        assert parses == len(sources)
        # one pool, one worker fewer than partitions, running only the
        # partition task on jobs that carry no AST
        assert len(pools) == 1
        calls = pools[0]["calls"]
        assert len(calls) == plan.n_partitions - 1
        assert all(fn.func is session_mod._compile_partition_worker for fn, _ in calls)
        assert all(job.analysis is None for _, (jobs,) in calls for job in jobs)
        # the parent compiled exactly the heaviest partition, and never
        # through the worker entry point (no worker session here)
        heaviest = max(
            plan.partitions, key=lambda p: sum(plan.weights[f] for f in p)
        )
        assert compiled == sorted(heaviest)
        assert session_mod._WORKER_SESSIONS == {}

    def test_two_partitions_fork_one_process(self, monkeypatch):
        pools = _recording_pool(monkeypatch, [])
        partitions = [
            [("int a() { return 1; }", "a.c"), ("int b() { return 2; }", "b.c")],
            [("int c() { return 3; }", "c.c")],
        ]
        obs.reset()
        try:
            with obs.enabled_scope():
                results = CompilationSession().compile_partitions(
                    partitions, max_workers=2
                )
            compiled = _compiled_here()
        finally:
            obs.reset()
        assert [[c.filename for c in part] for part in results] == [
            ["a.c", "b.c"], ["c.c"]
        ]
        assert [(p["workers"], len(p["calls"])) for p in pools] == [(1, 1)]
        assert compiled == ["a.c", "b.c"]

    def test_single_cold_partition_forks_nothing(self, monkeypatch):
        pools = _recording_pool(monkeypatch, [])
        sess = CompilationSession()
        warm = ("int a() { return 1; }", "a.c")
        sess.compile(*warm)
        results = sess.compile_partitions(
            [[warm], [("int b() { return 2; }", "b.c")]], max_workers=2
        )
        assert [part[0].cache_state for part in results] == ["memory", "cold"]
        assert pools == []

    def test_pool_is_submitted_before_the_first_warm_restore(self, monkeypatch):
        events: list[str] = []
        pools = _recording_pool(monkeypatch, events)
        sess = CompilationSession()
        warm = ("int w() { return 0; }", "w.c")
        sess.compile(*warm)
        restore = sess._restore_manifest

        def recording_restore(*args, **kwargs):
            events.append("restore")
            return restore(*args, **kwargs)

        monkeypatch.setattr(sess, "_restore_manifest", recording_restore)
        results = sess.compile_partitions(
            [
                [warm],
                [("int a() { return 1; }", "a.c")],
                [("int b() { return 2; }", "b.c")],
            ],
            max_workers=2,
        )
        assert [part[0].cache_state for part in results] == [
            "memory", "cold", "cold"
        ]
        assert events == ["pool", "restore"]
        assert [(p["workers"], len(p["calls"])) for p in pools] == [(1, 1)]


class TestCompileJobNormalization:
    def test_tuples_and_dataclass_jobs_equivalent(self):
        src = "int main() { return 5; }"
        a = CompilationSession().compile_many([(src, "m.c")], max_workers=1)
        b = CompilationSession().compile_many(
            [CompileJob(source=src, filename="m.c")], max_workers=1
        )
        assert canonical_rtl(a[0].rtl) == canonical_rtl(b[0].rtl)

    def test_job_carries_salt_and_effects(self):
        sess = CompilationSession()
        src = "int main() { return 5; }"
        plain = sess.compile_many([CompileJob(source=src, filename="m.c")],
                                  max_workers=1)[0]
        salted = sess.compile_many(
            [CompileJob(source=src, filename="m.c", extra_salt="wpa:x")],
            max_workers=1,
        )[0]
        # distinct salt -> distinct manifest key -> second compile is cold
        assert plain.cache_state is None or plain.cache_state == "cold"
        assert salted.cache_state is None or salted.cache_state == "cold"
        assert sess.stats.misses == 2

    def test_bad_job_shapes_rejected(self):
        sess = CompilationSession()
        with pytest.raises(ValueError):
            sess.compile_many([("only-source",)], max_workers=1)
        with pytest.raises(ValueError):
            sess.compile_many([42], max_workers=1)
