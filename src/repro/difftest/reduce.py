"""Delta-debugging reduction of failing fuzz programs.

Given a program that fails the differential harness, shrink it to a
minimal reproducer before a human ever looks at it.  Two phases:

1. **line-chunk ddmin** — repeatedly try deleting contiguous chunks of
   lines (halving chunk size down to single lines), keeping a deletion
   whenever the program still parses/checks *and* still exhibits a
   failure under the same matrix;
2. **literal shrinking** — rewrite surviving integer literals toward
   zero and array sizes toward the minimum, again keeping only changes
   that preserve the failure.

Validity is gated on ``parse_and_check``: a candidate that no longer
compiles in the front end is rejected outright, so the reducer can never
turn a miscompilation into a syntax error.  The interestingness test is
"``run_differential`` reports at least one failure whose *kind* matches
the original" — matching on kind (not exact message) lets the reducer
cross line-number and value changes while still refusing to wander onto
an unrelated bug.

Reduced cases are written to a ``crashes/`` directory with a header
comment carrying the seed, the failure list, and the reduction ratio.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from ..frontend import parse_and_check
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .diff import DiffResult, MatrixConfig, run_differential

__all__ = ["ReducedCase", "reduce_source", "write_crash"]


@dataclass
class ReducedCase:
    """The outcome of one reduction run."""

    original: str
    reduced: str
    seed: Optional[int] = None
    #: failure kinds preserved through the reduction
    kinds: tuple[str, ...] = ()
    #: the final failing DiffResult on the reduced program
    result: Optional[DiffResult] = None
    attempts: int = 0
    kept: int = 0

    @property
    def original_lines(self) -> int:
        return len(self.original.splitlines())

    @property
    def reduced_lines(self) -> int:
        return len(self.reduced.splitlines())


def _is_valid(source: str) -> bool:
    try:
        parse_and_check(source)
    except Exception:
        return False
    return True


def _make_oracle(
    matrix: Optional[list[MatrixConfig]],
    kinds: frozenset[str],
    seed: Optional[int],
    require_partial: bool = False,
) -> Callable[[str], Optional[DiffResult]]:
    """Interestingness test: valid program that still fails with one of
    the original failure kinds.

    With ``require_partial`` (set when the original program passed on at
    least one configuration), a candidate must also pass somewhere: a
    reduction step that breaks *every* configuration has almost certainly
    manufactured a new, unrelated bug (e.g. an out-of-bounds access from
    shrinking a bound) rather than preserved the original one.
    """
    n_configs = len(matrix) if matrix is not None else 4

    def oracle(source: str) -> Optional[DiffResult]:
        if not _is_valid(source):
            return None
        res = run_differential(source, seed=seed, matrix=matrix)
        if not any(f.kind in kinds for f in res.failures):
            return None
        if require_partial:
            failing = {f.config for f in res.failures} - {"<matrix>", "<reference>"}
            if len(failing) >= n_configs:
                return None
        return res

    return oracle


def _ddmin_lines(
    lines: list[str],
    oracle: Callable[[str], Optional[DiffResult]],
    case: ReducedCase,
) -> tuple[list[str], Optional[DiffResult]]:
    """Classic ddmin over line chunks: try removing each chunk, halve the
    chunk size whenever a full sweep keeps nothing."""
    best: Optional[DiffResult] = None
    chunk = max(1, len(lines) // 2)
    while chunk >= 1:
        removed_any = False
        i = 0
        while i < len(lines):
            candidate = lines[:i] + lines[i + chunk :]
            if not candidate:
                i += chunk
                continue
            case.attempts += 1
            res = oracle("\n".join(candidate) + "\n")
            if res is not None:
                lines = candidate
                best = res
                case.kept += 1
                removed_any = True
                # stay at the same index: the next chunk slid into place
            else:
                i += chunk
        if chunk == 1 and not removed_any:
            break
        if not removed_any:
            chunk //= 2
    return lines, best


_INT_RE = re.compile(r"(?<![\w.])(\d{2,})(?![\w.])")
#: Lines whose literals define storage shapes: shrinking them would break
#: the in-bounds-by-construction property of generated programs.
_DECL_RE = re.compile(r"^\s*(int|double|float|char|struct)\b")


def _shrinkable(source: str, start: int) -> bool:
    """May the literal at ``start`` be rewritten without changing the
    program's memory-safety envelope?"""
    line_start = source.rfind("\n", 0, start) + 1
    line_end = source.find("\n", start)
    line = source[line_start : line_end if line_end != -1 else len(source)]
    if _DECL_RE.match(line):
        return False  # array / variable declaration sizes stay put
    before = source[:start].rstrip()
    if before.endswith("&"):
        return False  # subscript masks keep accesses in bounds
    return True


def _shrink_literals(
    source: str,
    oracle: Callable[[str], Optional[DiffResult]],
    case: ReducedCase,
) -> tuple[str, Optional[DiffResult]]:
    """Rewrite multi-digit integer literals toward smaller values."""
    best: Optional[DiffResult] = None
    changed = True
    while changed:
        changed = False
        for m in list(_INT_RE.finditer(source)):
            if not _shrinkable(source, m.start(1)):
                continue
            value = int(m.group(1))
            for smaller in {value // 2, 8, 1}:
                if smaller >= value:
                    continue
                candidate = source[: m.start(1)] + str(smaller) + source[m.end(1) :]
                case.attempts += 1
                res = oracle(candidate)
                if res is not None:
                    source = candidate
                    best = res
                    case.kept += 1
                    changed = True
                    break
            if changed:
                break  # offsets shifted; rescan from the top
    return source, best


def reduce_source(
    source: str,
    seed: Optional[int] = None,
    matrix: Optional[list[MatrixConfig]] = None,
    kinds: Optional[frozenset[str]] = None,
    max_rounds: int = 4,
) -> ReducedCase:
    """Shrink ``source`` to a minimal program preserving its failure.

    ``kinds`` are the failure kinds to preserve; by default they are
    discovered by running the harness once on the original program.  If
    the original does not fail at all, the case is returned unreduced.
    """
    case = ReducedCase(original=source, reduced=source, seed=seed)
    with _trace.span("difftest.reduce", seed=seed):
        first = run_differential(source, seed=seed, matrix=matrix)
        if kinds is None:
            if first.ok:
                return case
            kinds = frozenset(f.kind for f in first.failures)
        case.result = first if not first.ok else None
        case.kinds = tuple(sorted(kinds))
        n_configs = len(matrix) if matrix is not None else 4
        failing = {f.config for f in first.failures} - {"<matrix>", "<reference>"}
        require_partial = bool(failing) and len(failing) < n_configs
        oracle = _make_oracle(matrix, frozenset(kinds), seed, require_partial)

        lines = source.splitlines()
        for _ in range(max_rounds):
            before = len(lines)
            lines, res = _ddmin_lines(lines, oracle, case)
            if res is not None:
                case.result = res
            text = "\n".join(lines) + "\n"
            text, res = _shrink_literals(text, oracle, case)
            if res is not None:
                case.result = res
            lines = text.splitlines()
            if len(lines) >= before:
                break
        case.reduced = "\n".join(lines) + "\n"
    _metrics.inc("difftest.reduced")
    _metrics.add("difftest.reduce.lines_removed",
                 case.original_lines - case.reduced_lines)
    return case


def write_crash(case: ReducedCase, crash_dir: "Path | str") -> Path:
    """Persist a reduced case under ``crash_dir`` with a triage header."""
    crash_dir = Path(crash_dir)
    crash_dir.mkdir(parents=True, exist_ok=True)
    tag = f"seed{case.seed}" if case.seed is not None else "case"
    name = f"{tag}-{'-'.join(case.kinds) or 'unknown'}.c"
    path = crash_dir / name
    header = [
        "// repro-fuzz reduced reproducer",
        f"// seed: {case.seed}",
        f"// failure kinds: {', '.join(case.kinds) or '?'}",
        f"// reduced {case.original_lines} -> {case.reduced_lines} lines"
        f" ({case.attempts} attempts, {case.kept} kept)",
    ]
    if case.result is not None:
        for f in case.result.failures[:6]:
            header.append(f"// {f.format()}")
    path.write_text("\n".join(header) + "\n" + case.reduced)
    return path
