"""Measurement collection and rendering for benchmark runs.

A :class:`Report` is a flat bag of :class:`Measurement` rows — one per
``(path, program, metric)`` with the raw per-iteration values — plus
enough set metadata (name, digests, iteration counts) to make the run
reproducible.  Aggregation (per-profile medians and spread) is computed
*from* the rows, never stored separately, so the four output modes can
not drift apart:

* ``brief`` — one line per path with the headline medians;
* ``full``  — per-profile tables with median, IQR, and stddev;
* ``csv``   — one row per measurement with its summary statistics;
* ``json``  — full fidelity (raw values included), round-trippable via
  :meth:`Report.from_json`.

Each report also carries the signature of the host it was measured on
(:func:`host_signature`), so two reports can be checked for being
comparable before their numbers are.
"""

from __future__ import annotations

import csv
import io
import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from ..binfmt import fingerprint
from .stats import Summary

__all__ = ["Measurement", "Report", "host_signature"]

#: schema tag written into every JSON report
SCHEMA = "repro-bench/v1"


@dataclass(frozen=True)
class Measurement:
    """Raw values of one metric for one program on one path."""

    path: str
    program: str
    profile: str
    metric: str
    values: tuple[float, ...]

    @property
    def summary(self) -> Summary:
        return Summary.from_values(self.values)


def _git_commit() -> Optional[str]:
    """The commit checked out around this source tree, or ``None``."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_signature() -> dict:
    """What a measurement depends on besides the workload: CPU count,
    interpreter version, machine type, commit and binfmt codec fingerprint."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "binfmt_fingerprint": fingerprint(),
    }


@dataclass
class Report:
    """One benchmark run over one named workload set."""

    set_name: str
    set_digest: str
    iterations: int
    warmup: int
    program_digests: dict[str, str] = field(default_factory=dict)
    measurements: list[Measurement] = field(default_factory=list)
    #: non-statistical facts (cache states, invalidation sets, failures)
    facts: dict = field(default_factory=dict)
    #: gate evaluation results, attached by the runner when gating
    gates: list[dict] = field(default_factory=list)
    #: :func:`host_signature` of the measuring host (empty if unknown)
    host: dict = field(default_factory=dict)

    # -- collection --------------------------------------------------------

    def add(
        self,
        path: str,
        program: str,
        profile: str,
        metric: str,
        values: Sequence[float],
    ) -> None:
        if not values:
            raise ValueError(f"no values for {path}/{program}/{metric}")
        self.measurements.append(
            Measurement(path, program, profile, metric, tuple(float(v) for v in values))
        )

    # -- queries -----------------------------------------------------------

    def paths(self) -> list[str]:
        return sorted({m.path for m in self.measurements})

    def metrics(self, path: str) -> list[str]:
        return sorted({m.metric for m in self.measurements if m.path == path})

    def rows(self, path: str, metric: str) -> list[Measurement]:
        return [
            m for m in self.measurements if m.path == path and m.metric == metric
        ]

    def profile_summary(self, path: str, metric: str) -> dict[str, Summary]:
        """Per-profile spread of the per-program **medians** — the
        program population is the sample, not the repeated iterations."""
        by_profile: dict[str, list[float]] = {}
        for m in self.rows(path, metric):
            by_profile.setdefault(m.profile, []).append(m.summary.median)
        return {
            prof: Summary.from_values(vals)
            for prof, vals in sorted(by_profile.items())
        }

    def overall_summary(self, path: str, metric: str) -> Optional[Summary]:
        vals = [m.summary.median for m in self.rows(path, metric)]
        return Summary.from_values(vals) if vals else None

    # -- rendering ---------------------------------------------------------

    def render_brief(self) -> str:
        header = (
            f"set {self.set_name} ({len(self.program_digests)} programs, "
            f"digest {self.set_digest[:12]}…, {self.iterations} iterations"
            f" + {self.warmup} warmup)"
        )
        if self.host:
            h = self.host
            header += (
                f" on {h['cpu_count']} cpu {h['machine']}, python {h['python']}, "
                f"commit {(h['commit'] or 'none')[:12]}, "
                f"binfmt {h['binfmt_fingerprint'][:12]}"
            )
        lines = [header]
        for path in self.paths():
            parts = []
            for metric in self.metrics(path):
                s = self.overall_summary(path, metric)
                if s is not None:
                    parts.append(f"{metric} median {s.median:.6g} (iqr {s.iqr:.3g})")
            lines.append(f"  {path}: " + "; ".join(parts))
        for gate in self.gates:
            mark = "PASS" if gate["passed"] else "FAIL"
            lines.append(
                f"  gate {mark} {gate['name']}: measured {gate['measured']} "
                f"{gate['op']} {gate['value']}"
            )
        return "\n".join(lines)

    def render_full(self) -> str:
        out = [self.render_brief(), ""]
        for path in self.paths():
            for metric in self.metrics(path):
                out.append(f"[{path}] {metric} — per profile (program medians)")
                out.append(
                    f"  {'profile':<10} {'n':>4} {'median':>12} {'iqr':>12} "
                    f"{'stddev':>12} {'min':>12} {'max':>12}"
                )
                for prof, s in self.profile_summary(path, metric).items():
                    out.append(
                        f"  {prof:<10} {s.count:>4} {s.median:>12.6g} "
                        f"{s.iqr:>12.6g} {s.stddev:>12.6g} "
                        f"{s.min:>12.6g} {s.max:>12.6g}"
                    )
                out.append("")
        return "\n".join(out)

    _CSV_FIELDS = [
        "set", "path", "program", "profile", "metric",
        "count", "mean", "median", "stddev", "iqr", "min", "max", "q1", "q3",
    ]

    def render_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=self._CSV_FIELDS)
        writer.writeheader()
        for m in self.measurements:
            s = m.summary
            writer.writerow(
                {
                    "set": self.set_name,
                    "path": m.path,
                    "program": m.program,
                    "profile": m.profile,
                    "metric": m.metric,
                    **s.to_dict(digits=9),
                }
            )
        return buf.getvalue()

    @classmethod
    def summaries_from_csv(cls, text: str) -> list[dict]:
        """Parse a :meth:`render_csv` document back into row dicts with
        typed summary fields (CSV carries summaries, not raw values)."""
        rows = []
        for row in csv.DictReader(io.StringIO(text)):
            parsed = dict(row)
            parsed["count"] = int(row["count"])
            for k in ("mean", "median", "stddev", "iqr", "min", "max", "q1", "q3"):
                parsed[k] = float(row[k])
            rows.append(parsed)
        return rows

    # -- JSON round trip ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "set": self.set_name,
            "set_digest": self.set_digest,
            "iterations": self.iterations,
            "warmup": self.warmup,
            "program_digests": dict(sorted(self.program_digests.items())),
            "measurements": [
                {
                    "path": m.path,
                    "program": m.program,
                    "profile": m.profile,
                    "metric": m.metric,
                    "values": list(m.values),
                    "summary": m.summary.to_dict(digits=9),
                }
                for m in self.measurements
            ],
            "profiles": {
                path: {
                    metric: {
                        prof: s.to_dict(digits=9)
                        for prof, s in self.profile_summary(path, metric).items()
                    }
                    for metric in self.metrics(path)
                }
                for path in self.paths()
            },
            "facts": self.facts,
            "gates": self.gates,
            "host": self.host,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "Report":
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"unknown report schema {doc.get('schema')!r}")
        report = cls(
            set_name=doc["set"],
            set_digest=doc["set_digest"],
            iterations=doc["iterations"],
            warmup=doc["warmup"],
            program_digests=dict(doc.get("program_digests", {})),
            facts=doc.get("facts", {}),
            gates=list(doc.get("gates", [])),
            host=dict(doc.get("host", {})),
        )
        for m in doc["measurements"]:
            report.add(m["path"], m["program"], m["profile"], m["metric"], m["values"])
        return report

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls.from_dict(json.loads(text))
