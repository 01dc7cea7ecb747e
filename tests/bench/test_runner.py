"""The session path's disk-warm facts, which the quick-v1 and suite-v1
baselines gate exactly.

Each warm observation is a fresh session over a disk cache one untimed
compile filled, so the facts describe a real disk restore: every
compile a disk hit, every function served from its back-end blob, no
front-end state decoded.  The second case breaks the back-end decode
to show the facts can fail.
"""

from __future__ import annotations

from repro.bench.runner import run_set
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
    def corrupt(data, want_unit=False):
        raise CacheCorruption("injected by the test")

    monkeypatch.setattr(session_mod, "_decode_fn_be", corrupt)
    facts = _session_facts()
    # the manifest still hits on disk; the functions fall back to fe blobs
    assert facts["session.warm_hit_ratio"] == 1.0
    assert facts["session.warm_be_hit_ratio"] == 0.0
    assert facts["session.warm_fe_decodes"] > 0
