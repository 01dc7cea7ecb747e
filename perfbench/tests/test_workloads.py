"""Smallest-size runs of every workload, and proof that failed
operations are counted rather than ending the run."""

import json
from pathlib import Path

import pytest

from perfbench import harness, workloads
from perfbench.clock import Timing
from repro.driver.timing import time_benchmark
from repro.workloads.suite import by_name

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smallest_run_of_each_workload(name, tmp_path):
    wl = workloads.WORKLOADS[name]()
    result = harness.run(wl, seed=3, seconds=0, trace=True, scratch=tmp_path, limit=1)
    assert result.failures == []
    assert result.correct and result.attempted >= 1 and result.passes == 1
    e2e = result.end_to_end()
    assert list(e2e) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(value > 0 for value, _unit in e2e.values())
    layers = result.per_layer()
    assert set(layers) == {m["name"] for m in BENCH["per_layer"]}
    assert layers["trace.unattributed_share"][0] < 1.0
    # set-up repeats leave nothing behind but the scratch root
    assert list(tmp_path.iterdir()) == []


def test_the_seed_fixes_the_order_and_the_edits(tmp_path, monkeypatch):
    edits = []
    prepare = workloads.WarmEdit.prepare

    def logged(self, op, rng):
        arg = prepare(self, op, rng)
        if isinstance(arg, workloads.Edit):
            edits.append((op, arg.source))
        return arg

    monkeypatch.setattr(workloads.WarmEdit, "prepare", logged)
    for seed in (11, 11, 12):
        harness.run(workloads.WarmEdit(), seed=seed, seconds=0, trace=False,
                    scratch=tmp_path, limit=2)
    n = len(edits) // 3
    assert n == 12
    assert edits[:n] == edits[n:2 * n]
    assert edits[:n] != edits[2 * n:]


def test_row_matches_time_benchmark():
    spec = by_name("008.espresso")
    row = workloads.table2_row(spec)
    ref = time_benchmark(spec)
    assert row.speedup("r4600") == ref.speedup_r4600
    assert row.speedup("r10000") == ref.speedup_r10000
    assert row.runs[("r4600", "gcc")][0] == ref.ret_gcc
    assert vars(row.combined.total_dep_stats()) == vars(ref.stats)


def test_wrong_reference_counts_as_failed(tmp_path):
    def corrupt(wl, op):
        wl.refs[op] = (123456789, [])

    result = harness.run(workloads.ColdBuild(), seed=1, seconds=0, trace=False,
                         scratch=tmp_path, limit=2, before_op=corrupt)
    assert result.attempted == 2 and result.failed == 2
    assert result.error_rate == 1.0 and not result.correct
    assert "returned" in result.failures[0]


def test_truncated_blob_before_a_warm_hit_counts_as_failed(tmp_path, monkeypatch):
    def truncate(wl, op):
        for blob in wl.cache.rglob("*.hlic"):
            blob.write_bytes(blob.read_bytes()[:20])

    hits_only = workloads.WarmEdit.ops
    monkeypatch.setattr(workloads.WarmEdit, "ops",
                        lambda self: [op for op in hits_only(self) if op.startswith("hit:")])
    result = harness.run(workloads.WarmEdit(), seed=1, seconds=0, trace=True,
                         scratch=tmp_path, limit=2, before_op=truncate)
    assert result.attempted == 2 and result.failed == 2
    assert result.error_rate > 0
    assert all("served as" in f for f in result.failures)


def test_op_ms_weighs_every_operation_the_same():
    def sample(op, kind, ms):
        return harness.Sample(op, kind, Timing(ms / 2000.0, ms / 1000.0))

    result = harness.RunResult(
        workload=workloads.WholeProgram(), seed=1, setups=[], attempted=5, failed=0,
        failures=[], passes=2, peak_rss_mb=1.0,
        samples=[sample("a@1", "wp_serial_ms", 1.0), sample("a@1", "wp_serial_ms", 3.0),
                 sample("b@2", "wp_jobs2_ms", 8.0), sample("b@2", "wp_jobs2_ms", 8.0),
                 sample("b@2", "wp_jobs2_ms", 100.0)],
    )
    # medians 2 and 8, whatever the sample counts
    assert result.op_ms() == pytest.approx(4.0)
    assert result.op_ms(scaled=False) == pytest.approx(2.0)
    assert result.op_ms("wp_jobs2_ms") == pytest.approx(8.0)
    assert result.op_ms("no such kind") == 0.0
