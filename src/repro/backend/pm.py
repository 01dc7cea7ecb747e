"""Generic pass-manager infrastructure.

The compilation pipeline used to be a hard-coded call sequence in
``driver/compile.py`` plus an ad-hoc "rebuild ``HLIQuery`` after table
mutations" loop in ``backend/passes.py``.  This module replaces both
with data: a :class:`Pass` declares what it *requires*, *provides*, and
*invalidates* (named artifacts such as ``"rtl"`` or ``"queries"``), and
the :class:`PassManager` enforces those declarations centrally — a pass
that mutates the HLI tables simply declares ``invalidates=("queries",)``
and the manager rebuilds the query indices lazily, right before the next
pass that needs them.

The module is deliberately compiler-agnostic: it never imports the
driver layer.  Passes act on an opaque context object, and artifact
names are plain strings; the concrete pipeline (parse → HLI build →
lower → map → opt passes → schedule → lint) lives in
:mod:`repro.driver.passes`.

Two properties fall out of declared effects that the old code could not
offer:

* **static validation** — a pipeline whose ordering is impossible
  (``map`` before ``lower``, an unknown pass name) is rejected with a
  :class:`PipelineError` before anything runs;
* **fingerprinting** — each pass carries a ``name@version`` fingerprint,
  and the fingerprint of the front-end prefix keys the
  :class:`~repro.driver.session.CompilationSession` artifact cache, so
  bumping a pass version transparently invalidates stale cache entries.

Back-end passes that act on one function at a time declare
``per_function=True``; the manager then drives them per compilation
unit through a *units provider* (``PassManager(units=...)``).  On a cold
compile the provider yields every function; on an incremental recompile
the session narrows it to the invalidated set, so unchanged functions'
passes are skipped entirely — the pipeline schedules per function, not
per file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from ..obs import metrics, trace

__all__ = [
    "Pass",
    "PassManager",
    "PipelineError",
    "PipelineStats",
    "frontend_fingerprint",
    "pipeline_fingerprint",
    "split_frontend",
]


class PipelineError(Exception):
    """A structurally invalid pipeline (unknown pass, impossible order)."""


@dataclass(frozen=True)
class Pass:
    """One pipeline stage with declared effects.

    ``action`` receives the pipeline's context object (for the driver
    pipeline, a :class:`repro.driver.passes.PassContext`) and mutates it
    in place.  ``requires``/``provides``/``invalidates`` name artifacts;
    the manager guarantees every required artifact is valid before
    ``action`` runs.
    """

    name: str
    action: Callable[..., None]
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()
    invalidates: tuple[str, ...] = ()
    #: front-end passes form the cacheable prefix of a pipeline: their
    #: outputs depend only on (source, filename), never on back-end knobs
    frontend: bool = False
    #: bump when the pass's output format/semantics change; part of the
    #: cache-key fingerprint
    version: int = 1
    #: per-function passes run once per *active* compilation unit with
    #: ``action(ctx, unit)``; the manager's ``units`` provider decides
    #: which units are active (all of them on a cold compile, only the
    #: invalidated ones on an incremental recompile)
    per_function: bool = False

    @property
    def fingerprint(self) -> str:
        return f"{self.name}@{self.version}"


@dataclass
class PipelineStats:
    """What one :meth:`PassManager.run` actually did (for tests/obs)."""

    #: pass names in execution order
    passes_run: list[str] = field(default_factory=list)
    #: artifact name -> number of automatic rebuilds triggered
    rebuilds: dict[str, int] = field(default_factory=dict)
    #: names of front-end passes skipped because a cache supplied their
    #: artifacts (set by the CompilationSession)
    cached_prefix: tuple[str, ...] = ()
    #: per-function pass name -> the units it actually ran over; on an
    #: incremental recompile this is the invalidated set, not the file
    function_runs: dict[str, list[str]] = field(default_factory=dict)


class PassManager:
    """Run a pass sequence, enforcing declared requires/invalidates.

    ``rebuilders`` maps an artifact name to a function that can restore
    it from the context after an invalidation (e.g. ``"queries"`` →
    rebuild every ``HLIQuery`` from the current HLI tables).  An
    invalidated artifact with no rebuilder makes a later requirement a
    :class:`PipelineError` at validation time.
    """

    def __init__(
        self,
        passes: Sequence[Pass],
        rebuilders: Optional[Mapping[str, Callable[[object], None]]] = None,
        units: Optional[Callable[[object], Sequence[str]]] = None,
    ) -> None:
        self.passes = list(passes)
        self.rebuilders = dict(rebuilders or {})
        self.units = units
        seen: set[str] = set()
        for p in self.passes:
            if p.name in seen:
                raise PipelineError(f"duplicate pass '{p.name}' in pipeline")
            seen.add(p.name)

    # -- static validation -----------------------------------------------------

    def validate(self, initial: Sequence[str] = ()) -> None:
        """Reject impossible orderings before anything runs.

        ``initial`` names artifacts already valid on entry (used when a
        cached front end supplies them).
        """
        available = set(initial)
        ever = set(initial)
        for p in self.passes:
            for need in p.requires:
                if need in available:
                    continue
                if need in self.rebuilders and need in ever:
                    continue  # restorable at run time
                origin = "invalidated by an earlier pass" if need in ever else (
                    "provided by no earlier pass"
                )
                raise PipelineError(
                    f"pass '{p.name}' requires artifact '{need}', "
                    f"which is {origin}"
                )
            available |= set(p.provides)
            ever |= set(p.provides)
            available -= set(p.invalidates)

    # -- execution -------------------------------------------------------------

    def run(
        self,
        ctx: object,
        initial: Sequence[str] = (),
        stats: Optional[PipelineStats] = None,
    ) -> PipelineStats:
        """Execute every pass in order; returns the run's statistics."""
        self.validate(initial)
        stats = stats if stats is not None else PipelineStats()
        available = set(initial)
        for p in self.passes:
            for need in p.requires:
                if need not in available:
                    rebuild = self.rebuilders[need]
                    with trace.span("pm.rebuild", artifact=need, before=p.name):
                        rebuild(ctx)
                    stats.rebuilds[need] = stats.rebuilds.get(need, 0) + 1
                    metrics.inc("pm.rebuild", need)
                    available.add(need)
            if p.per_function:
                if self.units is None:
                    raise PipelineError(
                        f"per-function pass '{p.name}' needs a units "
                        "provider on the PassManager"
                    )
                names = list(self.units(ctx))
                with trace.span("pm.pass", **{"pass": p.name, "units": len(names)}):
                    for unit in names:
                        p.action(ctx, unit)
                stats.function_runs[p.name] = names
            else:
                with trace.span("pm.pass", **{"pass": p.name}):
                    p.action(ctx)
            metrics.inc("pm.pass", p.name)
            stats.passes_run.append(p.name)
            available |= set(p.provides)
            available -= set(p.invalidates)
        return stats


# -- pipeline introspection helpers -------------------------------------------


def split_frontend(passes: Sequence[Pass]) -> tuple[list[Pass], list[Pass]]:
    """Split a pipeline into its front-end prefix and back-end suffix.

    Front-end passes must form a contiguous prefix — a front-end pass
    after a back-end one would make the cached-prefix story unsound.
    """
    prefix: list[Pass] = []
    suffix: list[Pass] = []
    for p in passes:
        if p.frontend:
            if suffix:
                raise PipelineError(
                    f"front-end pass '{p.name}' appears after back-end "
                    f"pass '{suffix[0].name}'; front-end passes must form "
                    "a contiguous prefix"
                )
            prefix.append(p)
        else:
            suffix.append(p)
    return prefix, suffix


def pipeline_fingerprint(passes: Sequence[Pass]) -> str:
    """Stable hash of a whole pipeline's ``name@version`` sequence."""
    joined = "|".join(p.fingerprint for p in passes)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def frontend_fingerprint(passes: Sequence[Pass]) -> str:
    """Fingerprint of just the cacheable front-end prefix."""
    prefix, _ = split_frontend(passes)
    return pipeline_fingerprint(prefix)
