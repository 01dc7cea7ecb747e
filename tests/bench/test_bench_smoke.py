"""Quick-mode smoke coverage for the benchmark entry points (the
``bench`` marker lane: ``pytest -m bench tests/bench``).

Two families:

* the gated ``repro-bench`` commands CI runs (the suite-v1 disk-warm
  and invalidation gates, the decode-v1 codec ceilings) are driven
  through the real CLI at one iteration, asserting a zero exit;
* the pytest-benchmark suites under ``benchmarks/`` are exercised
  through a subprocess pytest with one cheap selection each and
  ``--benchmark-disable``, so the timing loop collapses to a single
  call (guarded on the plugin being installed).

These run only in the ``bench`` lane, not in the default tier-1 sweep —
the point is that a refactor cannot silently break a harness that CI
only runs nightly.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"


def _json_at(path: Path) -> dict:
    assert path.exists(), f"{path} not written"
    return json.loads(path.read_text())


class TestGatedCommands:
    def test_suite_gates(self, tmp_path, monkeypatch):
        # CI's suite-v1 command at one iteration, against the committed
        # default baseline (resolved from the repository root)
        from repro.bench.cli import main as bench_main

        monkeypatch.chdir(REPO_ROOT)
        rc = bench_main([
            "--set", "suite-v1", "--paths", "session,incremental",
            "--gate", "--iterations", "1", "--warmup", "0", "--quiet",
            "--out", str(tmp_path / "suite.json"),
        ])
        assert rc == 0

    def test_decode_path_gates(self, tmp_path):
        # one-iteration decode-v1 run through the real CLI, gated
        # against the committed ceiling baselines
        from repro.bench.cli import main as bench_main
        from repro.bench.registry import materialize
        from repro.obs import metrics

        out = tmp_path / "decode.json"
        was_enabled = metrics.is_enabled()
        metrics.reset()
        metrics.enable()
        try:
            rc = bench_main([
                "--set", "quick-v1", "--paths", "decode",
                "--iterations", "1", "--warmup", "0", "--quiet",
                "--gate", str(REPO_ROOT / "benchmarks/baselines/decode-v1.json"),
                "--out", str(out),
            ])
        finally:
            if not was_enabled:
                metrics.disable()
        assert rc == 0
        doc = _json_at(out)
        assert doc["facts"]["decode.roundtrip_ok"] == 1.0
        assert doc["facts"]["decode.blob_bytes"] > 0
        # the decode path times the RTL codec of single-unit programs only
        singles = {p.name for p in materialize("quick-v1") if not p.multi_unit}
        rows = [m for m in doc["measurements"] if m["path"] == "decode"]
        assert {m["program"] for m in rows} == singles
        assert not [m for m in rows if m["metric"].startswith("summary_")]
        assert metrics.counters()["bench.compiles.decode"] == len(singles)

    def test_rtl_encode_gate_catches_a_linear_register_scan(self, monkeypatch):
        # the register dedup the RTL codec used to have: a scan over every
        # register seen so far, quadratic in the function's size
        from repro.bench.gates import evaluate, load_gates
        from repro.bench.runner import run_set
        from repro.binfmt import rtlcodec

        def linear_rid(self, r):
            if r is None:
                return 0
            key = (r.rid, r.is_float, r.name)
            for i, seen in enumerate(self.regs):
                if (seen.rid, seen.is_float, seen.name) == key:
                    return i + 1
            self.regs.append(r)
            return len(self.regs)

        monkeypatch.setattr(rtlcodec._Tables, "rid", linear_rid)
        report = run_set("quick-v1", iterations=1, warmup=0, paths=("decode",))
        _set, gates = load_gates(str(REPO_ROOT / "benchmarks/baselines/decode-v1.json"))
        verdict = {r.gate.metric: r.passed for r in evaluate(report, gates)}
        assert verdict["decode.roundtrip_ok"]
        assert verdict["rtl_encode_seconds"]  # the per-program ceiling misses it
        assert not verdict["rtl_encode_us_per_insn"]


_PYTEST_SELECTIONS = {
    "bench_ablations.py": "test_merge_rules_shrink_hli and tomcatv",
    "bench_cache_sensitivity.py": "test_cache_adds_stalls_r4600",
    "bench_cse_refmod.py": "test_fig4_semantics_identical",
    "bench_hli_overhead.py": "test_binary_decode_cost",
    "bench_speedups.py": "test_speedup_row and wc",
    "bench_swp_mii.py": "test_mii_headroom and tomcatv",
    "bench_table1.py": "test_table1_row and wc",
    "bench_table2.py": "test_table2_row and wc",
    "bench_unroll_maint.py": "test_fig6_unroll_maintenance_clones_items",
}


@pytest.mark.skipif(
    importlib.util.find_spec("pytest_benchmark") is None,
    reason="pytest-benchmark not installed",
)
@pytest.mark.parametrize("filename", sorted(_PYTEST_SELECTIONS))
def test_pytest_benchmark_file_smokes(filename):
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            str(BENCH_DIR / filename),
            "-k", _PYTEST_SELECTIONS[filename],
            "-m", "bench",
            "--benchmark-disable",
            "--no-header", "-q", "-x",
            "-p", "no:cacheprovider",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, f"{filename}:\n{proc.stdout}\n{proc.stderr}"
