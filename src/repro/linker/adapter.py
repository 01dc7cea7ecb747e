"""Query adapter: cross-module summaries → unit-local REF/MOD effects.

The per-unit HLI pipeline (builder → :class:`repro.hli.query.HLIQuery` →
DDG) reasons in terms of :class:`~repro.analysis.refmod.EffectSet`
values over the unit's own abstract objects.  This module converts the
linker's name-based :class:`~repro.linker.summary.FnSummary` records
into that vocabulary, so rebuilding a unit's HLI with the converted
``external_effects`` makes every downstream consumer — call-acc queries,
dependence tests, the DDG builder, lint replay — transparently
whole-program aware.  No query or back-end code changes: the adapter
*is* the cross-unit query path.

Conversion rules:

* every summary name is carried as a
  :class:`~repro.analysis.refmod.ForeignObject` keyed by its canonical
  link-space spelling; symbol binding is deliberately *deferred* — the
  consuming :class:`~repro.analysis.refmod.RefModAnalysis` rebinds names
  that denote the unit's own storage (bare globals, own-unit qualified
  names, heap sites) to the abstract objects of **its** parse.  Effect
  sets outlive the parse they were computed on: a session's compilation
  re-runs its front end lazily from source, with these same
  ``external_effects``, the first time ``Compilation.frontend`` is read
  (:mod:`repro.driver.session`), and
  :class:`~repro.frontend.symbols.Symbol` identity does not survive
  that re-parse — a summary resolved against the link-time parse would
  silently match nothing there;
* ``ref_any``/``mod_any`` flags fold to
  :data:`~repro.analysis.alias.TOP`, which is never worse than the
  per-file default of TOP on both sets;
* **parameter effects** (``param_ref``/``param_mod`` — the callee reads
  or writes through parameter ``i``) instantiate over the consuming
  unit's own direct call sites, mirroring the linker's
  :func:`~repro.linker.summary.transfer` step: a frozenset argument
  binding yields one ForeignObject per bound name, while an
  unanalyzable binding (``ANY``/``None``) or a caller-parameter
  indirection — which a per-name :class:`EffectSet` cannot express —
  folds that side to TOP.  A unit with no call site for the function
  keeps the conservative TOP (its effect set is never consulted).
  Because the effect set is keyed per callee *name*, bindings union
  over every call site in the unit.
"""

from __future__ import annotations

from ..analysis.alias import TOP
from ..analysis.refmod import EffectSet, ForeignObject
from .summary import FnSummary
from .unit import ANY, CallSite, UnitAnalysis

__all__ = ["effects_for_unit", "effects_fingerprint"]


def _instantiate_params(
    eff_side: set, indices: set[int], calls: list[CallSite]
) -> None:
    """Bind parameter effect indices through the unit's call sites.

    The binding forms and their meanings are exactly those of
    ``summary.transfer``'s ``instantiate``; the only divergence is that
    a ``("param", j)`` binding — an effect flowing through the *caller's*
    parameter — degrades to TOP here, because the unit-local effect
    vocabulary has no symbol for "whatever my caller passed".
    """
    if not calls:
        eff_side.add(TOP)
        return
    for call in calls:
        for i in sorted(indices):
            bind = call.bindings[i] if i < len(call.bindings) else ANY
            if isinstance(bind, frozenset):
                for name in bind:
                    eff_side.add(ForeignObject(name))
            else:  # ANY, None, ("param", j), future variants
                eff_side.add(TOP)


def _convert(summary: FnSummary, calls: list[CallSite]) -> EffectSet:
    eff = EffectSet()
    if summary.ref_any:
        eff.ref.add(TOP)
    else:
        for name in summary.ref_names:
            eff.ref.add(ForeignObject(name))
        if summary.param_ref:
            _instantiate_params(eff.ref, summary.param_ref, calls)
    if summary.mod_any:
        eff.mod.add(TOP)
    else:
        for name in summary.mod_names:
            eff.mod.add(ForeignObject(name))
        if summary.param_mod:
            _instantiate_params(eff.mod, summary.param_mod, calls)
    return eff


def effects_for_unit(
    unit: UnitAnalysis, summaries: dict[str, FnSummary]
) -> dict[str, EffectSet]:
    """External-function effects for rebuilding one unit's HLI.

    Covers every function the unit declares but does not define whose
    definition the linker found in another unit.  Parameter effects are
    bound at the unit's direct call sites (see module docstring), so
    the converted sets carry argument-position precision instead of the
    old fold-to-TOP default.
    """
    defined = set(unit.defined_functions())
    sites: dict[str, list[CallSite]] = {}
    for local in unit.locals.values():
        for call in local.calls:
            sites.setdefault(call.callee, []).append(call)
    out: dict[str, EffectSet] = {}
    for name, fsym in unit.table.functions.items():
        if name in defined or not fsym.external:
            continue
        summary = summaries.get(name)
        if summary is None or summary.unit == unit.filename:
            continue
        out[name] = _convert(summary, sites.get(name, []))
    return out


def effects_fingerprint(effects: dict[str, EffectSet]) -> str:
    """Stable text form of converted effects (session cache salt)."""

    def obj_name(obj: object) -> str:
        if obj is TOP or obj == TOP:
            return "<top>"
        name = getattr(obj, "name", None)
        return str(name) if name is not None else repr(obj)

    lines = []
    for fn in sorted(effects):
        eff = effects[fn]
        ref = ",".join(sorted(obj_name(o) for o in eff.ref))
        mod = ",".join(sorted(obj_name(o) for o in eff.mod))
        lines.append(f"{fn} ref={ref} mod={mod}")
    return "\n".join(lines)
