"""Partitioned parallel back end: parity with ``jobs=1`` and resilience.

The partitioner is a pure scheduling decision, so every program in the
``gen-multiunit-v1`` registry set must compile to the *same* output
under ``jobs=N`` + partitioning as under the serial path: per-unit RTL
alpha-equivalent, ``DepStats`` equal, whole-program lint verdicts
(HLI009-HLI012) equal, and the canonical encoding of the merged image
byte-identical.  (Raw RTL bytes are process-history-dependent — reg/uid
ids come from global atomic counters — so "identical bytes" is asserted
on the canonical alpha-renamed form produced by ``canonical_rtl``.)

Worker death must never lose work: with the partition worker patched
to exit at once (a forked child inherits the patch), the batch must
still complete through the in-process fallback.  A whole
``compile_whole_program`` build must complete too, in a subprocess
whose every forked child dies at birth.

The calling process is one of the workers: it compiles the heaviest
partition itself, from the analyses it already holds, while one forked
child fewer compiles the rest, on the same analyses inherited at the
fork.  A ``balanced`` phase 2 forks only when the pooled share is heavy
enough to pay (``wpa.FANOUT_MIN_WEIGHT``); tests that need a fan-out on
a 3-unit program lower that cutoff (the ``fanout`` fixture).
"""

import json
import os
import signal
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
from repro.driver import wpa as wpa_mod
from repro.driver.compile import CompileOptions
from repro.driver.session import CompilationSession, CompileJob
from repro.driver.wpa import compile_whole_program
from repro.frontend.errors import SemanticError
from repro.obs import trace

PROGRAMS = {p.name: p for p in materialize("gen-multiunit-v1")}
#: every 8-16-unit program plus a spread of the 3-unit ones — enough to
#: exercise multi-partition plans without recompiling the whole set
PARITY_NAMES = sorted(
    name for name, p in PROGRAMS.items()
    if p.profile == "multiunit-large" or name.endswith(("-000", "-005", "-011"))
)
THREE_UNIT = sorted(name for name, p in PROGRAMS.items() if len(p.units) == 3)


@pytest.fixture
def fanout(monkeypatch):
    """Make every multi-partition ``balanced`` plan fork, on any host:
    no cost cutoff, and two usable CPUs."""
    monkeypatch.setattr(wpa_mod, "FANOUT_MIN_WEIGHT", 0)
    monkeypatch.setattr(session_mod, "_usable_cpus", lambda: 2)


def _image_bytes(result) -> bytes:
    return json.dumps(canonical_rtl(result.image), sort_keys=True).encode()


def _lint_rules(result) -> list[str]:
    return sorted({d.rule.rule_id for d in result.lint_report().diagnostics})


@pytest.mark.usefixtures("fanout")
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


def _exit_at_once(*_args):
    os._exit(17)


def _kill_self(*_args):
    os.kill(os.getpid(), signal.SIGKILL)


def _batch_after_death(monkeypatch, death) -> tuple[CompilationSession, int]:
    """Compile two partitions at ``max_workers=2`` with the forked child
    dying through ``death``; check the batch completed and no child is
    left, and return the session and the ``session.partition.fallback``
    count."""
    monkeypatch.setattr(session_mod, "_compile_partition_worker", death)
    sess = CompilationSession()
    partitions = [
        [
            CompileJob("int a() { return 1; }", "a.c"),
            CompileJob("int b() { return 2; }", "b.c"),
        ],
        [CompileJob("int c() { return 3; }", "c.c")],
    ]
    obs.reset()
    try:
        with obs.enabled_scope():
            results = sess.compile_partitions(partitions, max_workers=2)
        fallbacks = obs.metrics.counters().get("session.partition.fallback", 0)
    finally:
        obs.reset()
    assert [len(part) for part in results] == [2, 1]
    for part in results:
        for comp in part:
            assert comp is not None and comp.rtl.functions
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return sess, fallbacks


class TestWorkerDeath:
    def test_partition_batch_completes_via_fallback(self, monkeypatch):
        sess, fallbacks = _batch_after_death(monkeypatch, _exit_at_once)
        # every job was compiled in-parent: the parent's own partition,
        # then the dead child's one (counted as a fallback)
        assert sess.stats.misses == 3
        assert fallbacks == 1

    def test_child_killed_by_a_signal_falls_back_too(self, monkeypatch):
        sess, fallbacks = _batch_after_death(monkeypatch, _kill_self)
        assert sess.stats.misses == 3
        assert fallbacks == 1

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
            from repro.driver import session, wpa
            from repro.driver.compile import CompileOptions
            from repro.driver.wpa import compile_whole_program

            def form(result):
                return json.dumps([
                    {f: canonical_rtl(c.rtl) for f, c in result.units.items()},
                    canonical_rtl(result.image),
                    {f: vars(c.total_dep_stats()) for f, c in result.units.items()},
                ], sort_keys=True)

            # a 3-unit program: force the fan-out it would skip
            wpa.FANOUT_MIN_WEIGHT = 0
            session._usable_cpus = lambda: 2
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
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("parity")
            """
        )
        env = dict(os.environ)
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
            [CompileJob("int a() { return 1; }", "a.c")],
            [CompileJob("int b() { return 2; }", "b.c")],
        ]
        results = sess.compile_partitions(partitions, max_workers=2)
        names = [list(c.rtl.functions) for part in results for c in part]
        assert names == [["a"], ["b"]]


class TestSemanticErrorAcrossTheFork:
    GOOD = ("int a() { return 1; }\n", "a.c")
    BAD = ("int b() {\n  int x;\n  return y;\n}\n", "b.c")
    MESSAGE = "b.c:3:1: use of undeclared identifier 'y'"

    def test_whole_program_build_names_the_unit(self):
        for jobs in (1, 2):
            with pytest.raises(SemanticError) as info:
                compile_whole_program(
                    [tuple(reversed(self.GOOD)), tuple(reversed(self.BAD))],
                    jobs=jobs, partition="1to1",
                )
            assert str(info.value) == self.MESSAGE

    def test_error_in_a_forked_partition_re_raises_in_the_parent(self):
        with pytest.raises(SemanticError) as serial:
            CompilationSession().compile_partitions(
                [[CompileJob(*self.GOOD)], [CompileJob(*self.BAD)]], max_workers=1
            )
        with pytest.raises(SemanticError) as forked:
            CompilationSession().compile_partitions(
                [[CompileJob(*self.GOOD)], [CompileJob(*self.BAD)]], max_workers=2
            )
        assert str(serial.value) == str(forked.value) == self.MESSAGE
        assert forked.value.pos == serial.value.pos
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _recording_forks(monkeypatch, events: list) -> list[dict]:
    """Record every ``parallel_map`` fan-out (its task, its items and the
    children it forks), appending ``"fork"`` to ``events`` per child."""
    fanouts: list[dict] = []
    real_map, real_fork = session_mod.parallel_map, os.fork

    def recording_map(fn, items, *args, **kwargs):
        fanouts.append({"fn": fn, "items": list(items), "forks": 0})
        return real_map(fn, items, *args, **kwargs)

    def recording_fork():
        pid = real_fork()
        if pid:
            events.append("fork")
            fanouts[-1]["forks"] += 1
        return pid

    monkeypatch.setattr(session_mod, "parallel_map", recording_map)
    monkeypatch.setattr(os, "fork", recording_fork)
    return fanouts


def _compiled_here() -> list[str]:
    return sorted(
        s.attrs["file"] for s in trace.iter_spans() if s.name == "session.compile"
    )


class TestParentWork:
    def test_parent_parses_once_and_forks_only_the_partition_pool(
        self, monkeypatch, fanout
    ):
        sources = list(PROGRAMS[PARITY_NAMES[0]].units)
        fanouts = _recording_forks(monkeypatch, [])
        worker = session_mod._compile_partition_worker
        ran_here: list[int] = []

        def recording_worker(*args):
            ran_here.append(os.getpid())  # a child appends to its own copy
            return worker(*args)

        monkeypatch.setattr(session_mod, "_compile_partition_worker", recording_worker)
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
        # one fan-out, one child fewer than partitions, running only the
        # partition task on jobs that keep their phase-1 analyses
        assert len(fanouts) == 1
        fan = fanouts[0]
        assert fan["forks"] == len(fan["items"]) == plan.n_partitions - 1
        assert fan["fn"].func is recording_worker
        assert all(job.analysis is not None for jobs in fan["items"] for job in jobs)
        # ... so no unit, here or in a child, was parsed a second time
        assert all("parse" not in c.pipeline_stats.passes_run for c in part.units.values())
        # the parent compiled exactly the heaviest partition, and never
        # through the worker entry point
        heaviest = max(plan.partitions, key=plan.load)
        assert compiled == sorted(heaviest)
        assert ran_here == []

    def test_two_partitions_fork_one_process(self, monkeypatch):
        fanouts = _recording_forks(monkeypatch, [])
        partitions = [
            [
                CompileJob("int a() { return 1; }", "a.c"),
                CompileJob("int b() { return 2; }", "b.c"),
            ],
            [CompileJob("int c() { return 3; }", "c.c")],
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
        assert [(f["forks"], len(f["items"])) for f in fanouts] == [(1, 1)]
        assert compiled == ["a.c", "b.c"]

    def test_single_cold_partition_forks_nothing(self, monkeypatch):
        events: list[str] = []
        fanouts = _recording_forks(monkeypatch, events)
        sess = CompilationSession()
        warm = CompileJob("int a() { return 1; }", "a.c")
        sess.compile(warm.source, warm.filename)
        results = sess.compile_partitions(
            [[warm], [CompileJob("int b() { return 2; }", "b.c")]], max_workers=2
        )
        assert [part[0].cache_state for part in results] == ["memory", "cold"]
        assert fanouts == [] and events == []

    def test_pool_is_submitted_before_the_first_warm_restore(self, monkeypatch):
        events: list[str] = []
        fanouts = _recording_forks(monkeypatch, events)
        sess = CompilationSession()
        warm = CompileJob("int w() { return 0; }", "w.c")
        sess.compile(warm.source, warm.filename)
        restore = sess._restore_manifest

        def recording_restore(*args, **kwargs):
            events.append("restore")
            return restore(*args, **kwargs)

        monkeypatch.setattr(sess, "_restore_manifest", recording_restore)
        results = sess.compile_partitions(
            [
                [warm],
                [CompileJob("int a() { return 1; }", "a.c")],
                [CompileJob("int b() { return 2; }", "b.c")],
            ],
            max_workers=2,
        )
        assert [part[0].cache_state for part in results] == [
            "memory", "cold", "cold"
        ]
        assert events == ["fork", "restore"]
        assert [(f["forks"], len(f["items"])) for f in fanouts] == [(1, 1)]


class TestFanOutCutoff:
    @pytest.mark.parametrize("name", THREE_UNIT)
    def test_small_programs_fork_nothing_and_match_serial(self, monkeypatch, name):
        # two usable CPUs, so the cost cutoff (not the clamp) decides
        monkeypatch.setattr(session_mod, "_usable_cpus", lambda: 2)
        events: list[str] = []
        fanouts = _recording_forks(monkeypatch, events)
        sources = list(PROGRAMS[name].units)
        opts = CompileOptions()
        serial = compile_whole_program(sources, opts, session=CompilationSession())
        part = compile_whole_program(
            sources, opts, session=CompilationSession(),
            jobs=2, partition="balanced",
        )
        assert fanouts == [] and events == []
        assert part.partition_plan.n_partitions == 1
        assert part.partition_plan.partitions == [[f for f, _ in sources]]
        assert _image_bytes(serial) == _image_bytes(part)
        assert serial.total_dep_stats() == part.total_dep_stats()
        assert serial.summary_generations == part.summary_generations

    def test_metrics_describe_the_plan_that_ran(self, monkeypatch):
        monkeypatch.setattr(session_mod, "_usable_cpus", lambda: 2)
        obs.reset()
        try:
            part = compile_whole_program(
                list(PROGRAMS[THREE_UNIT[0]].units), CompileOptions(trace=True),
                jobs=2, partition="balanced",
            )
            counters, gauges = obs.metrics.counters(), obs.metrics.gauges()
        finally:
            obs.reset()
        assert part.partition_plan.n_partitions == 1
        assert counters["wpa.partitions"] == 1
        assert gauges["wpa.partition_skew"] == 1.0
        assert "session.partition.fallback" not in counters

    def test_large_programs_still_fan_out(self, monkeypatch):
        monkeypatch.setattr(session_mod, "_usable_cpus", lambda: 2)
        name = next(n for n in PARITY_NAMES if PROGRAMS[n].profile == "multiunit-large")
        fanouts = _recording_forks(monkeypatch, [])
        part = compile_whole_program(
            list(PROGRAMS[name].units), CompileOptions(),
            session=CompilationSession(), jobs=2, partition="balanced",
        )
        plan = part.partition_plan
        assert plan.n_partitions == 2
        pooled = sum(plan.weights.values()) - max(map(plan.load, plan.partitions))
        assert pooled >= wpa_mod.FANOUT_MIN_WEIGHT
        assert [f["forks"] for f in fanouts] == [1]

    @pytest.mark.parametrize("cpus, partitions", [(1, 1), (2, 2), (8, 4)])
    def test_balanced_plans_are_clamped_to_usable_cpus(
        self, monkeypatch, cpus, partitions
    ):
        monkeypatch.setattr(session_mod, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(wpa_mod, "FANOUT_MIN_WEIGHT", 0)
        name = next(n for n in PARITY_NAMES if PROGRAMS[n].profile == "multiunit-large")
        fanouts = _recording_forks(monkeypatch, [])
        part = compile_whole_program(
            list(PROGRAMS[name].units), CompileOptions(),
            session=CompilationSession(), jobs=4, partition="balanced",
        )
        assert part.partition_plan.n_partitions == partitions
        assert [f["forks"] for f in fanouts] == ([partitions - 1] if cpus > 1 else [])

    def test_1to1_forks_as_asked(self, monkeypatch):
        monkeypatch.setattr(session_mod, "_usable_cpus", lambda: 1)
        fanouts = _recording_forks(monkeypatch, [])
        sources = list(PROGRAMS[THREE_UNIT[0]].units)
        part = compile_whole_program(
            sources, CompileOptions(), session=CompilationSession(),
            jobs=3, partition="1to1",
        )
        assert part.partition_plan.n_partitions == len(sources) == 3
        assert [f["forks"] for f in fanouts] == [2]


class TestCompileJobNormalization:
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
