"""The benchmark's four workloads.

Each workload takes its programs from :mod:`repro.bench.registry`
(checked against the pinned digests on every set-up), defines its
operations, checks every operation's result against a reference the
compiler under test did not produce, and knows how to replay an
operation layer by layer for the traced run.  ``warm-edit`` (hits and
edits) and ``whole-program`` (jobs=1 and jobs=2) mix two kinds of
operation; :meth:`Workload.kind` names each kind after the figure the
report gives for it.

The populations are fixed, so a run's figures depend on the seed only
through the operation order and, in ``warm-edit``, the edits.
"""

from __future__ import annotations

import random
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

from repro.analysis.alias import analyze_points_to
from repro.analysis.refmod import analyze_refmod
from repro.backend.ddg import DDGMode, DepStats
from repro.bench import registry
from repro.bench.stats import geomean
from repro.binfmt.rtlcodec import encode_rtl_function
from repro.difftest.incremental import canonical_rtl, edit_helper
from repro.driver.compile import Compilation, CompileOptions, compile_source
from repro.driver.incremental import function_keys, transitive_callers
from repro.driver.session import CompilationSession
from repro.driver.wpa import WholeProgramResult, compile_whole_program
from repro.frontend import parse_and_check
from repro.frontend.interp import interpret
from repro.hli.binio import encode_hli
from repro.machine.executor import execute
from repro.machine.latencies import r4600_latency, r10000_latency
from repro.machine.pipeline import R4600Model
from repro.machine.superscalar import R10000Model

from . import replay
from .clock import Steps, Timing, timed
from .tracing import Tracer

#: Options for every compile outside the Table-2 rows.
OPTIONS = CompileOptions(mode=DDGMode.COMBINED, cse=True, licm=True, unroll=2)

#: The suite-v1 rows ``paper-suite`` runs: two integer and one floating
#: point row that gain from HLI or lose slightly (wc, 015.doduc,
#: 129.compress) and a neutral one.  All 14 rows take about 95 s on a
#: 2-core x86 host; these four take about 8 s, so a run makes two passes.
PAPER_ROWS = ("008.espresso", "129.compress", "wc", "015.doduc")

MACHINES = (("r4600", r4600_latency, R4600Model), ("r10000", r10000_latency, R10000Model))

_HELPER = re.compile(r"^int (f\d+)\(int a, int b\) \{", re.M)


class SetupError(Exception):
    """A workload's inputs do not match their pinned definition."""


@dataclass
class Quality:
    """Deterministic properties of one compiled program."""

    deps: DepStats
    hli_bytes: int


def quality_of(comps: list[Compilation]) -> Quality:
    deps = DepStats()
    size = 0
    for comp in comps:
        deps.merge(comp.total_dep_stats())
        size += len(encode_hli(comp.hli))
    return Quality(deps, size)


def load_sets(names: tuple[str, ...]) -> dict[str, tuple[registry.WorkloadProgram, ...]]:
    """Materialise each set afresh and check it against its pinned digests."""
    registry.materialize.cache_clear()
    problems = [p for name in names for p in registry.verify_manifest(name)]
    if problems:
        raise SetupError("; ".join(problems))
    return {name: registry.materialize(name) for name in names}


def reference(source: str, filename: str, entry: str = "main", input_text: str = ""):
    """Return value and output of the front end's reference interpreter."""
    program, _ = parse_and_check(source, filename)
    result = interpret(program, entry, input_text=input_text)
    return result.ret, list(result.output)


def differs(result, ref) -> Optional[str]:
    got = (result.ret, list(result.output))
    if got == ref:
        return None
    return f"returned {result.ret!r} and {len(got[1])} output lines, expected {ref[0]!r} and {len(ref[1])}"


def merged_source(units: tuple[tuple[str, str], ...]) -> str:
    """One source for a multi-unit program: every unit's lines with the
    ``extern`` declarations and prototypes dropped (unit 0 holds main)."""
    proto = re.compile(r"^\w[\w\s*]*\([^)]*\)\s*;$")
    lines = []
    for _filename, source in units:
        for line in source.split("\n"):
            text = line.strip()
            if text.startswith("extern ") or proto.match(text):
                continue
            lines.append(line)
    return "\n".join(lines)


def recompiled(comp: Compilation) -> set[str]:
    """Functions the back end actually ran over in this compile."""
    ran: set[str] = set()
    if comp.pipeline_stats is not None:
        for units in comp.pipeline_stats.function_runs.values():
            ran |= set(units)
    return ran


def invalidation_set(source: str, filename: str, target: str) -> set[str]:
    """The edited function plus its transitive callers."""
    program, table = parse_and_check(source, filename)
    pts = analyze_points_to(program, table)
    keys = function_keys(source, program, table, pts, analyze_refmod(program, table, pts))
    return {target} | transitive_callers(keys, {target})


def count_session(t: Tracer, comp: Compilation, session: CompilationSession) -> None:
    """Counts the real call's session recorded."""
    stats = session.stats
    t.count("driver.be_hits", stats.be_hits)
    t.count("driver.be_lookups", stats.be_hits + stats.be_misses)
    t.count("driver.session.fe_decodes", stats.fe_decodes)
    t.count("driver.incremental.recompiled_fns", len(recompiled(comp)))


def cache_files(root: Path) -> set[Path]:
    return {p for p in root.rglob("*") if p.is_file()}


class Workload:
    """One workload: set-up, one pass of operations, checks and replays."""

    name = ""
    sets: tuple[str, ...] = ()
    #: what one operation is, for the report
    op = ""
    #: the report's name for the time of an operation of the one kind
    op_kind = ""

    def setup(self, tmp: Path, limit: Optional[int]) -> None:
        raise NotImplementedError

    def ops(self) -> list[str]:
        """One pass, in a fixed order the harness shuffles."""
        return list(self.programs)

    def kind(self, op: str) -> str:
        """The report's name for the time of ``op``'s kind."""
        return self.op_kind

    def prepare(self, op: str, rng: random.Random) -> Any:
        """Untimed per-operation input."""
        return self.programs[op]

    def run(self, arg: Any) -> Any:
        """The timed public call."""
        raise NotImplementedError

    def timed_run(self, arg: Any) -> tuple[Any, Timing]:
        """:meth:`run`, timed between two probes."""
        return timed(lambda: self.run(arg))

    def check(self, arg: Any, out: Any) -> Optional[str]:
        """A failure message, or None when the result is correct."""
        raise NotImplementedError

    def record(self, op: str, arg: Any, out: Any) -> None:
        """Note the deterministic quality of a correct result."""

    def replay(self, arg: Any, out: Any, t: Tracer) -> None:
        """Repeat the operation as layer calls inside one root span ``op``;
        inputs made before that span stay out of the traced time."""
        raise NotImplementedError

    def after(self) -> None:
        """Untimed clean-up after every operation, failed or not."""

    def quality(self) -> dict[str, float]:
        deps = DepStats()
        size = 0
        for q in self.quality_by.values():
            deps.merge(q.deps)
            size += q.hli_bytes
        return {"ddg_reduction_pct": 100.0 * deps.reduction, "hli_bytes": float(size)}

    def extra_quality(self) -> dict[str, float]:
        """Workload-specific quality figures, reported by name only."""
        return {}


@dataclass
class Row:
    """The observable results of one Table-2 row."""

    #: (machine, mode) -> (ret, output, cycles)
    runs: dict = field(default_factory=dict)
    combined: Optional[Compilation] = None

    def speedup(self, machine: str) -> float:
        return self.runs[(machine, "gcc")][2] / self.runs[(machine, "combined")][2]


def table2_row(spec, step=lambda call: call()) -> Row:
    """``driver.timing.time_benchmark``'s flow, keeping every execution's
    output for the check: four compiles through one session, four
    executions, each trace timed on the model its schedule was tuned for.
    ``step`` makes each of those twelve calls."""
    session = CompilationSession()
    row = Row()
    for machine, latency, model_cls in MACHINES:
        model = model_cls()
        for mode in (DDGMode.GCC, DDGMode.COMBINED):
            opts = CompileOptions(mode=mode, latency=latency)
            comp = step(lambda: session.compile(spec.source, spec.name, opts))
            res = step(lambda: execute(comp.rtl, spec.entry, input_text=spec.input_text))
            timing = step(lambda: model.time(res.trace))
            row.runs[(machine, mode.value)] = (res.ret, res.output, timing.cycles)
            if row.combined is None and mode is DDGMode.COMBINED:
                row.combined = comp
    return row


class PaperSuite(Workload):
    name = "paper-suite"
    sets = ("suite-v1",)
    op = "one Table-2 row (4 session compiles, 4 executions, 4 model timings)"
    op_kind = "table2_row_ms"

    def setup(self, tmp, limit):
        load_sets(self.sets)
        specs = {s.name: s for s in registry.suite_specs()}
        self.programs = {n: specs[n] for n in PAPER_ROWS[:limit]}
        self.refs = {
            n: reference(s.source, s.name, s.entry, s.input_text)
            for n, s in self.programs.items()
        }
        self.quality_by: dict[str, Quality] = {}
        self.speedups: dict[str, tuple[float, float]] = {}

    def run(self, spec):
        return table2_row(spec)

    def timed_run(self, spec):
        """A row takes seconds, over which the host's speed moves, so each
        of its calls is timed between its own probes."""
        steps = Steps()
        return table2_row(spec, steps), steps.total

    def check(self, spec, row):
        ref = self.refs[spec.name]
        for (machine, mode), (ret, output, _cycles) in row.runs.items():
            if (ret, list(output)) != ref:
                return f"{machine}/{mode} returned {ret!r}, expected {ref[0]!r}"
        return None

    def record(self, op, spec, row):
        self.quality_by[op] = quality_of([row.combined])
        self.speedups[op] = (row.speedup("r4600"), row.speedup("r10000"))

    def replay(self, spec, row, t):
        configs = [
            (machine, model_cls(), CompileOptions(mode=mode, latency=latency))
            for machine, latency, model_cls in MACHINES
            for mode in (DDGMode.GCC, DDGMode.COMBINED)
        ]
        with t.span("op"):
            replay.row_replay(t, spec, configs)

    def extra_quality(self):
        if not self.speedups:
            return {}
        r4600 = [s[0] for s in self.speedups.values()]
        r10000 = [s[1] for s in self.speedups.values()]
        return {
            "machine.speedup_r4600_geomean": geomean(r4600),
            "machine.speedup_r10000_geomean": geomean(r10000),
            "machine.speedup_min": min(r4600 + r10000),
        }


class ColdBuild(Workload):
    name = "cold-build"
    sets = ("corpus-v1", "kernels-v1")
    op = "one CompilationSession.compile over an empty disk cache"
    op_kind = "compile_ms"

    def setup(self, tmp, limit):
        sets = load_sets(self.sets)
        # every tenth corpus-v1 program (3 per profile) and every fourth
        # kernel (two stencils, a reduction and an affine loop)
        progs = (list(sets["corpus-v1"][::10]) + list(sets["kernels-v1"][::4]))[:limit]
        self.tmp = tmp
        self.programs = {p.name: p for p in progs}
        self.refs = {p.name: reference(p.source, p.units[0][0]) for p in progs}
        self.quality_by: dict[str, Quality] = {}
        self.cache: Optional[Path] = None

    def prepare(self, op, rng):
        self.cache = Path(tempfile.mkdtemp(dir=self.tmp))
        return self.programs[op]

    def run(self, prog):
        session = CompilationSession(cache_dir=self.cache)
        return session.compile(prog.source, prog.units[0][0], OPTIONS), session

    def check(self, prog, out):
        comp, _session = out
        if comp.cache_state != "cold":
            return f"served as {comp.cache_state!r} from an empty cache"
        return differs(execute(comp.rtl, collect_trace=False), self.refs[prog.name])

    def record(self, op, prog, out):
        self.quality_by.setdefault(op, quality_of([out[0]]))

    def replay(self, prog, out, t):
        count_session(t, *out)
        filename = prog.units[0][0]
        start = perf_counter()
        compile_source(prog.source, filename, OPTIONS)
        t.count("driver.plain_compile_s", perf_counter() - start)
        with t.span("op"):
            replay.compile_replay(t, prog.source, filename, OPTIONS)

    def after(self):
        if self.cache is not None:
            shutil.rmtree(self.cache, ignore_errors=True)
            self.cache = None


@dataclass
class Hit:
    key: str
    prog: registry.WorkloadProgram


@dataclass
class Edit:
    prog: registry.WorkloadProgram
    source: str
    target: str
    expected: set[str]


class WarmEdit(Workload):
    """Programs compiled into a disk cache during set-up with the
    cold-build options; every operation uses a fresh session over it."""

    name = "warm-edit"
    sets = ("gen-deepcall-v1", "corpus-v1")
    op = ("a warm hit (one unchanged program) or an edit (one program with one "
          "edited helper), each through a fresh session over the warm disk cache")

    def setup(self, tmp, limit):
        sets = load_sets(self.sets)
        deepcall = [(f"gen-deepcall-v1/{p.name}", p) for p in sets["gen-deepcall-v1"]]
        # hits: every second gen-deepcall-v1 program and every tenth
        # corpus-v1 program (three per profile); edits: every helper of
        # every eighth gen-deepcall-v1 program (six helpers each)
        hits = (deepcall[::2] + [(f"corpus-v1/{p.name}", p) for p in sets["corpus-v1"][::10]])
        edited = deepcall[::8]
        self.hits = [key for key, _p in hits[:limit]]
        self.edited = [key for key, _p in edited[:limit]]
        self.cache = tmp / "cache"
        session = CompilationSession(cache_dir=self.cache)
        self.programs: dict[str, registry.WorkloadProgram] = {}
        self.quality_by: dict[str, Quality] = {}
        for key, p in hits[:limit] + edited[:limit]:
            if key not in self.programs:
                comp = session.compile(p.source, p.units[0][0], OPTIONS)
                self.programs[key] = p
                self.quality_by[key] = quality_of([comp])
        self.pristine = cache_files(self.cache)
        #: canonical RTL of a cold compile_source, computed on first use
        self.canon: dict[str, dict] = {}
        #: reference outputs and invalidation sets, per edited source
        self.refs: dict[str, tuple] = {}
        self.expected: dict[str, set[str]] = {}

    def ops(self):
        """Every hit program, and every helper of every edited program,
        once per pass."""
        return [f"hit:{key}" for key in self.hits] + [
            f"edit:{key}#{helper}"
            for key in self.edited
            for helper in _HELPER.findall(self.programs[key].source)
        ]

    def kind(self, op):
        return "warm_hit_ms" if op.startswith("hit:") else "edit_rebuild_ms"

    def prepare(self, op, rng):
        kind, _, rest = op.partition(":")
        if kind == "hit":
            return Hit(rest, self.programs[rest])
        key, helper = rest.split("#")
        prog = self.programs[key]
        filename = prog.units[0][0]
        refmod_changing = rng.random() < 0.5
        # The seed picks the edit kind and its constant or global; the
        # helper is fixed by the operation, so every pass rebuilds the same
        # invalidation sets.
        for _ in range(200):
            pick = random.Random(rng.getrandbits(32))
            change = edit_helper(prog.source, pick, refmod_changing=refmod_changing)
            if change is None:  # no global the helper could newly modify
                change = edit_helper(prog.source, pick)
            if change.target == helper:
                break
        else:
            raise RuntimeError(f"edit_helper never picked {helper}")
        if change.source not in self.expected:
            self.expected[change.source] = invalidation_set(change.source, filename, helper)
            self.refs[change.source] = reference(change.source, filename)
        return Edit(prog, change.source, helper, self.expected[change.source])

    def run(self, arg):
        source = arg.source if isinstance(arg, Edit) else arg.prog.source
        session = CompilationSession(cache_dir=self.cache)
        return session.compile(source, arg.prog.units[0][0], OPTIONS), session

    def check(self, arg, out):
        comp, session = out
        if isinstance(arg, Edit):
            ran = recompiled(comp)
            if ran != arg.expected:
                return f"recompiled {sorted(ran)}, expected {sorted(arg.expected)}"
            return differs(execute(comp.rtl, collect_trace=False), self.refs[arg.source])
        if comp.cache_state != "disk" or session.stats.fe_decodes:
            return (f"served as {comp.cache_state!r} with "
                    f"{session.stats.fe_decodes} front-end decodes")
        if arg.key not in self.canon:
            cold = compile_source(arg.prog.source, arg.prog.units[0][0], OPTIONS)
            self.canon[arg.key] = canonical_rtl(cold.rtl)
        if canonical_rtl(comp.rtl) != self.canon[arg.key]:
            return "warm RTL is not alpha-equivalent to a cold compile_source"
        return None

    def replay(self, arg, out, t):
        comp, session = out
        count_session(t, comp, session)
        if isinstance(arg, Hit):
            blobs = [encode_rtl_function(fn) for fn in comp.rtl.functions.values()]
            with t.span("op"):
                replay.warm_replay(t, blobs)
            return
        t.count("driver.incremental.predicted_fns", len(arg.expected))
        spliced = [
            encode_rtl_function(fn)
            for name, fn in comp.rtl.functions.items()
            if name not in arg.expected
        ]
        with t.span("op"):
            replay.edit_replay(
                t, arg.source, arg.prog.units[0][0], OPTIONS, arg.expected, spliced
            )

    def after(self):
        """Remove the blobs an edit wrote, so every operation sees the
        cache as set-up left it."""
        for path in cache_files(self.cache) - self.pristine:
            path.unlink()


def _wp_form(wp: WholeProgramResult) -> tuple:
    """What must not depend on scheduling: every unit's RTL, the image, and
    every unit's dependence statistics, up to register renaming."""
    return (
        {name: canonical_rtl(comp.rtl) for name, comp in wp.units.items()},
        canonical_rtl(wp.image),
        {name: vars(comp.total_dep_stats()) for name, comp in wp.units.items()},
    )


class WholeProgram(Workload):
    name = "whole-program"
    sets = ("gen-multiunit-v1",)
    op = ("one cold compile_whole_program with a fresh memory session, at jobs=1 "
          "or at jobs=2 with balanced partitions")

    def setup(self, tmp, limit):
        sets = load_sets(self.sets)
        # every third program: four with 3 units, two with 8-16 units
        progs = list(sets[self.sets[0]][::3])[:limit]
        self.programs = {p.name: p for p in progs}
        self.refs = {p.name: reference(merged_source(p.units), "merged.c") for p in progs}
        self.quality_by: dict[str, Quality] = {}
        self.call_deps: dict[str, tuple[int, int]] = {}
        #: the jobs=1 result's scheduling-independent form, on first use
        self.serial: dict[str, tuple] = {}

    def ops(self):
        """Every program at jobs=1 and at jobs=2, once per pass."""
        return [f"{name}@{jobs}" for name in self.programs for jobs in (1, 2)]

    def kind(self, op):
        return "wp_serial_ms" if op.endswith("@1") else "wp_jobs2_ms"

    def prepare(self, op, rng):
        name, jobs = op.split("@")
        return self.programs[name], int(jobs)

    def run(self, arg):
        prog, jobs = arg
        return compile_whole_program(
            list(prog.units),
            OPTIONS,
            session=CompilationSession(),
            jobs=jobs,
            partition="balanced" if jobs > 1 else "none",
        )

    def check(self, arg, wp):
        prog, jobs = arg
        err = differs(execute(wp.image, collect_trace=False), self.refs[prog.name])
        if err is not None or jobs == 1:
            return err
        if prog.name not in self.serial:
            serial = compile_whole_program(list(prog.units), OPTIONS, jobs=1)
            self.serial[prog.name] = _wp_form(serial)
        if _wp_form(wp) != self.serial[prog.name]:
            return "jobs=2 result is not alpha-equivalent to jobs=1"
        return None

    def record(self, op, arg, wp):
        prog = arg[0]
        if prog.name not in self.quality_by:
            self.quality_by[prog.name] = quality_of(list(wp.units.values()))
            base = compile_whole_program(list(prog.units), OPTIONS, whole_program=False)
            self.call_deps[prog.name] = (
                wp.total_dep_stats().call_dep, base.total_dep_stats().call_dep
            )

    def replay(self, arg, wp, t):
        prog, jobs = arg
        with t.span("op"):
            replay.wp_replay(t, prog.units, OPTIONS, jobs)

    def extra_quality(self):
        if not self.call_deps:
            return {}
        linked = sum(v[0] for v in self.call_deps.values())
        per_file = sum(v[1] for v in self.call_deps.values())
        return {"linker.call_edges_deleted_pct": 100.0 * (1 - linked / per_file)}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PaperSuite, ColdBuild, WarmEdit, WholeProgram)
}
