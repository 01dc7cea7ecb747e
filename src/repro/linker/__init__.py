"""repro.linker — whole-program HLI linking (separate compilation, linked).

The paper's HLI format is explicitly per translation unit; calls into
other files degrade to conservative REF/MOD verdicts.  This package adds
the missing link step, in the spirit of LTO summaries:

* :mod:`repro.linker.table`   — global symbol reconciliation (the link
  table) with duplicate/type/undefined diagnostics;
* :mod:`repro.linker.unit`    — per-unit local summaries in a
  link-global name space, with call-site argument bindings;
* :mod:`repro.linker.summary` — whole-program call graph, Tarjan SCCs,
  and the bottom-up REF/MOD + points-to fixpoint;
* :mod:`repro.linker.adapter` — converts summaries back into unit-local
  :class:`~repro.analysis.refmod.EffectSet` values so the unchanged HLI
  query/DDG machinery answers cross-unit questions;
* :mod:`repro.linker.image`   — merges per-unit RTL into one executable
  image (re-layouted globals, remapped init data).

:func:`link_units` is the front door; the whole-program driver
(:mod:`repro.driver.wpa`) orchestrates it with per-unit compilation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hli import faults
from ..obs import metrics, trace
from .adapter import effects_fingerprint, effects_for_unit
from .image import link_image
from .partition import PARTITION_MODES, PartitionPlan, partition_program, unit_weight
from .summary import (
    FnSummary,
    SummaryResult,
    build_call_graph,
    compute_summaries,
    tarjan_sccs,
    transfer,
)
from .table import LinkDiagnostic, LinkSymbol, LinkTable, build_link_table
from .unit import ANY, CallSite, LocalSummary, UnitAnalysis, analyze_unit

__all__ = [
    "ANY",
    "CallSite",
    "FnSummary",
    "LinkDiagnostic",
    "LinkResult",
    "LinkSymbol",
    "LinkTable",
    "LocalSummary",
    "PARTITION_MODES",
    "PartitionPlan",
    "SummaryResult",
    "UnitAnalysis",
    "analyze_unit",
    "build_call_graph",
    "build_link_table",
    "compute_summaries",
    "effects_fingerprint",
    "effects_for_unit",
    "link_image",
    "link_units",
    "partition_program",
    "tarjan_sccs",
    "transfer",
    "unit_weight",
]


@dataclass
class LinkResult:
    """Everything the link step produced for a multi-unit program."""

    units: list[UnitAnalysis] = field(default_factory=list)
    table: LinkTable = field(default_factory=LinkTable)
    summary: SummaryResult = field(default_factory=SummaryResult)

    @property
    def summaries(self) -> dict[str, FnSummary]:
        return self.summary.summaries

    @property
    def diagnostics(self) -> list[LinkDiagnostic]:
        return self.table.diagnostics

    def fingerprint(self) -> str:
        """Stable text form of table + summaries (session cache salt)."""
        parts = [self.table.fingerprint()]
        for name in sorted(self.summaries):
            parts.append(self.summaries[name].fingerprint())
        return "\n".join(parts)


def _apply_link_faults(result: LinkResult) -> None:
    """Deterministic link-time corruptions for lint property tests."""
    if faults.is_active(faults.DROP_SUMMARY):
        for name in sorted(result.summaries):
            if name == "main":
                continue
            s = result.summaries[name]
            if s.ref_names or s.mod_names or s.ref_any or s.mod_any:
                s.ref_names.clear()
                s.mod_names.clear()
                s.param_ref.clear()
                s.param_mod.clear()
                s.ref_any = False
                s.mod_any = False
                break
    if faults.is_active(faults.SWAP_LINK_ENTRIES):
        names = sorted(
            n for n, s in result.table.symbols.items() if s.defined_in is not None
        )
        if len(names) >= 2:
            a, b = names[0], names[1]
            sa, sb = result.table.symbols[a], result.table.symbols[b]
            result.table.symbols[a] = LinkSymbol(
                name=sa.name,
                kind=sa.kind,
                defined_in=sb.defined_in,
                declared_in=sa.declared_in,
                type_repr=sa.type_repr,
                size=sa.size,
            )
            result.table.symbols[b] = LinkSymbol(
                name=sb.name,
                kind=sb.kind,
                defined_in=sa.defined_in,
                declared_in=sb.declared_in,
                type_repr=sb.type_repr,
                size=sb.size,
            )


def link_units(units: list[UnitAnalysis]) -> LinkResult:
    """Reconcile symbols and compute cross-module summaries for ``units``."""
    with trace.span("linker.link", units=len(units)):
        with trace.span("linker.reconcile"):
            table = build_link_table(units)
        with trace.span("linker.summaries"):
            summary = compute_summaries(units)
        result = LinkResult(units=units, table=table, summary=summary)
        _apply_link_faults(result)
        if metrics.is_enabled():
            metrics.add("linker.units", len(units))
            metrics.add("linker.symbols_reconciled", len(table.symbols))
            metrics.add("linker.diagnostics", len(table.diagnostics))
            metrics.add("linker.summaries_computed", len(summary.summaries))
            metrics.add("linker.scc_count", len(summary.sccs))
            metrics.add("linker.scc_iterations", summary.total_iterations)
        return result
