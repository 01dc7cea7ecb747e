"""repro.checker — static-analysis auditing of the HLI (``hli-lint``).

The back-end *trusts* front-end HLI facts to delete dependence edges
(paper Section 3.2.2) and keeps the tables consistent under CSE / LICM /
unrolling by in-place maintenance (Section 3.2.3).  Nothing in the base
pipeline independently checks that the facts it consumes are still
sound.  This package adds that layer, in three tiers:

* :mod:`repro.checker.dataflow` — a generic iterative (worklist)
  dataflow framework over the back-end CFG/RTL, with a reaching
  definitions instance.
* :mod:`repro.checker.oracle` — an independent, conservative dependence
  oracle derived from that framework.  It never reads the HLI, which is
  what makes it a *sound baseline*: anything it proves contradicts an
  HLI claim is a genuine inconsistency.
* :mod:`repro.checker.lint` / :mod:`repro.checker.rules` /
  :mod:`repro.checker.dynamic` / :mod:`repro.checker.cli` — ``hli-lint``
  itself: a rule-based auditor that replays every claim the back-end
  consumes (equivalent-access NONE verdicts, call REF/MOD effects,
  eq-class membership, LCDD distances, mapping-table consistency) and
  emits structured diagnostics with stable rule IDs.

See ``docs/CHECKER.md`` for the rule catalogue and exit codes.
"""

from .dataflow import DataflowProblem, DataflowResult, ReachingDefinitions, solve
from .dynamic import dynamic_audit
from .lint import HLILinter, lint_compilation
from .oracle import CallEffectOracle, DependenceOracle, DepVerdict
from .rules import Diagnostic, LintReport, Rule, RULES, Severity
from .wplint import lint_whole_program

__all__ = [
    "CallEffectOracle",
    "DataflowProblem",
    "DataflowResult",
    "DependenceOracle",
    "DepVerdict",
    "Diagnostic",
    "HLILinter",
    "LintReport",
    "ReachingDefinitions",
    "Rule",
    "RULES",
    "Severity",
    "dynamic_audit",
    "lint_compilation",
    "lint_whole_program",
    "solve",
]
