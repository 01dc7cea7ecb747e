"""The session path's disk-warm facts, which the quick-v1 and suite-v1
baselines gate exactly.

Each warm observation is a fresh session over a disk cache one untimed
compile filled, so the facts describe a real disk restore: every
compile a disk hit, every function served from its back-end blob, no
front-end state decoded.  The second case breaks the back-end decode
to show the facts can fail.  The wpa cases pin the path's partition
count (one per usable CPU, up to the arm's jobs), show that its parity
fact also compares summary generations and lint verdicts, and pin the
order it times its two arms in.
"""

from __future__ import annotations

import pytest

from repro.bench.registry import materialize
from repro.bench.report import Report
from repro.bench.runner import WPA_BENCH_JOBS, _wpa, run_set
from repro.driver import session as session_mod
from repro.driver import wpa
from repro.driver.session import CacheCorruption


def _session_facts() -> dict:
    report = run_set("quick-v1", iterations=1, warmup=0, paths=("session",))
    return report.facts


def test_warm_arm_restores_every_function_from_disk_be_blobs():
    facts = _session_facts()
    assert facts["session.warm_hit_ratio"] == 1.0
    assert facts["session.warm_be_hit_ratio"] == 1.0
    assert facts["session.warm_fe_decodes"] == 0


def test_broken_be_decode_shows_in_the_warm_facts(monkeypatch):
    def corrupt(data):
        raise CacheCorruption("injected by the test")

    monkeypatch.setattr(session_mod, "_decode_fn_be", corrupt)
    facts = _session_facts()
    # the manifest still hits on disk; the functions fall back to fe blobs
    assert facts["session.warm_hit_ratio"] == 1.0
    assert facts["session.warm_be_hit_ratio"] == 0.0
    assert facts["session.warm_fe_decodes"] > 0


def test_wpa_arm_is_clamped_to_usable_cpus(monkeypatch):
    # The arm asks for WPA_BENCH_JOBS; the driver gives a balanced plan
    # at most one partition per CPU the process may use.
    prog = next(
        p for p in materialize("gen-multiunit-v1") if p.profile == "multiunit-large"
    )
    assert WPA_BENCH_JOBS == 4
    for cpus, partitions in ((2, 2), (8, 4)):
        monkeypatch.setattr(session_mod, "_usable_cpus", lambda: cpus)
        report = Report(set_name="t", set_digest="", iterations=1, warmup=0)
        facts = _wpa(report, prog, 1, 0, WPA_BENCH_JOBS)
        assert facts == {"parity": True, "partitions": partitions}


@pytest.mark.parametrize("skew", ["summary_generations", "lint"])
def test_wpa_parity_covers_generations_and_lint(monkeypatch, skew):
    real = wpa.compile_whole_program

    def skewed(*args, jobs=1, **kwargs):
        res = real(*args, jobs=jobs, **kwargs)
        if jobs > 1:
            if skew == "summary_generations":
                # a name HLI012 skips, so only the generations differ
                res.summary_generations["<no such function>"] = 0
            else:
                # a stale entry: HLI012 fires, the generations stay equal
                name = sorted(res.summary_generations)[0]
                unit = res.link.summaries[name].unit
                res.units[unit].hli.entries[name].generation += 1
        return res

    monkeypatch.setattr(wpa, "compile_whole_program", skewed)
    prog = materialize("gen-multiunit-v1")[0]
    report = Report(set_name="t", set_digest="", iterations=1, warmup=0)
    assert _wpa(report, prog, 1, 0, 2)["parity"] is False


def test_wpa_arms_warm_up_first_then_alternate(monkeypatch):
    prog = materialize("gen-multiunit-v1")[0]
    result = wpa.compile_whole_program(list(prog.units), jobs=1, partition="none")
    calls = []

    def stub(*args, jobs=1, **kwargs):
        calls.append("serial" if jobs == 1 else "partitioned")
        return result

    monkeypatch.setattr(wpa, "compile_whole_program", stub)
    report = Report(set_name="t", set_digest="", iterations=3, warmup=1)
    assert _wpa(report, prog, 3, 1, 2)["parity"] is True
    s, p = "serial", "partitioned"
    # warm-ups, then iterations timed s-first, p-first, s-first
    assert calls == [s, p, s, p, p, s, s, p]
