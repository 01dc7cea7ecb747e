"""The session path's disk-warm facts, which the quick-v1 and suite-v1
baselines gate exactly.

Each warm observation is a fresh session over a disk cache one untimed
compile filled, so the facts describe a real disk restore: every
compile a disk hit, every function served from its back-end blob, no
front-end state decoded.  The second case breaks the back-end decode
to show the facts can fail.  The last pins the wpa path's worker count,
which the wpa-v1 floors were measured with.
"""

from __future__ import annotations

import os

from repro.bench.registry import materialize
from repro.bench.report import Report
from repro.bench.runner import WPA_BENCH_JOBS, _wpa, run_set
from repro.driver import session as session_mod
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


def test_wpa_arm_is_not_clamped_to_the_machine(monkeypatch):
    # The wpa-v1 floors were measured on 1- and 2-core hosts running the
    # partitioned arm at WPA_BENCH_JOBS anyway; keep it that way.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    prog = next(
        p for p in materialize("gen-multiunit-v1") if p.profile == "multiunit-large"
    )
    report = Report(set_name="t", set_digest="", iterations=1, warmup=0)
    facts = _wpa(report, prog, 1, 0, WPA_BENCH_JOBS)
    assert WPA_BENCH_JOBS == 4
    assert facts == {"parity": True, "partitions": 4}
