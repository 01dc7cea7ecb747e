"""Fault injection: the harness must detect every seeded miscompilation."""

import pytest

from repro.difftest.diff import build_matrix, run_differential
from repro.difftest.gen import GenConfig, generate
from repro.hli import faults

QUICK = build_matrix("quick")


def _first_detection(fault, kinds, seeds=range(8), preset="medium"):
    """Fuzz under an armed fault until a failure of an expected kind."""
    with faults.inject(fault):
        for seed in seeds:
            source = generate(seed, GenConfig.preset(preset))
            res = run_differential(source, seed=seed, matrix=QUICK)
            hits = [f for f in res.failures if f.kind in kinds]
            if hits:
                return res, hits
    return None, []


def test_inject_context_manager_arms_and_disarms():
    assert not faults.active_faults()
    with faults.inject(faults.FLIP_VERDICT):
        assert faults.is_active(faults.FLIP_VERDICT)
        assert not faults.is_active(faults.DROP_MAINTENANCE)
    assert not faults.active_faults()


def test_inject_rejects_unknown_fault():
    with pytest.raises(ValueError):
        with faults.inject("made-up-fault"):
            pass


def test_drop_maintenance_detected_by_accounting():
    res, hits = _first_detection(
        faults.DROP_MAINTENANCE, kinds={"maintenance", "lint", "semantic"}
    )
    assert res is not None, "dropped delete_item went undetected"
    assert any(h.kind == "maintenance" for h in hits)
    assert "delete_item" in hits[0].detail or "line table" in hits[0].detail


def test_stale_generation_detected_by_lint():
    res, hits = _first_detection(
        faults.STALE_GENERATION, kinds={"lint", "semantic", "compile-crash"}
    )
    assert res is not None, "frozen generation counter went undetected"


def test_flip_verdict_detected():
    res, hits = _first_detection(
        faults.FLIP_VERDICT, kinds={"lint", "semantic", "memory"}
    )
    assert res is not None, "flipped dependence verdict went undetected"


def test_clean_pipeline_stays_clean():
    """The detection tests above are meaningful only if the same corpus is
    failure-free with no fault armed."""
    for seed in range(8):
        source = generate(seed, GenConfig.preset("medium"))
        res = run_differential(source, seed=seed, matrix=QUICK)
        assert res.ok, [f.format() for f in res.failures]
