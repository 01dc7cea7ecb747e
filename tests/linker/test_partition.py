"""Unit partitioning for the parallel whole-program back end."""

import pytest

from repro.linker import PARTITION_MODES, partition_program, unit_weight

U0 = ("u0.c", "int helper0() { return 1; }")
U1 = ("u1.c", "int helper1() { int a; a = 2; a = a + 1; return a; }")
U2 = (
    "u2.c",
    "int helper2() { int i; int s; s = 0;"
    " for (i = 0; i < 4; i = i + 1) { s = s + i; } return s; }",
)
U3 = ("main.c", "int f(); int main() { return 7; }")


def test_modes_registered():
    assert set(PARTITION_MODES) == {"none", "1to1", "balanced"}


def test_none_mode_single_partition(make_units):
    units = make_units(U0, U1, U3)
    plan = partition_program(units, mode="none", jobs=4)
    assert plan.n_partitions == 1
    assert plan.partitions[0] == ["u0.c", "u1.c", "main.c"]
    assert plan.skew == 1.0


def test_1to1_mode_one_unit_per_partition(make_units):
    units = make_units(U0, U1, U2, U3)
    plan = partition_program(units, mode="1to1", jobs=2)
    assert plan.n_partitions == 4
    assert plan.partitions == [["u0.c"], ["u1.c"], ["u2.c"], ["main.c"]]


def test_balanced_covers_every_unit_exactly_once(make_units):
    units = make_units(U0, U1, U2, U3)
    plan = partition_program(units, mode="balanced", jobs=2)
    assert plan.n_partitions == 2
    seen = [f for part in plan.partitions for f in part]
    assert sorted(seen) == sorted(u.filename for u in units)


def test_balanced_respects_source_order_within_partitions(make_units):
    units = make_units(U0, U1, U2, U3)
    order = {u.filename: i for i, u in enumerate(units)}
    plan = partition_program(units, mode="balanced", jobs=2)
    for part in plan.partitions:
        indices = [order[f] for f in part]
        assert indices == sorted(indices)


def test_balanced_is_deterministic(make_units):
    units = make_units(U0, U1, U2, U3)
    a = partition_program(units, mode="balanced", jobs=3)
    b = partition_program(units, mode="balanced", jobs=3)
    assert a.partitions == b.partitions
    assert a.skew == b.skew


def test_balanced_caps_partitions_at_unit_count(make_units):
    units = make_units(U0, U1)
    plan = partition_program(units, mode="balanced", jobs=8)
    assert plan.n_partitions <= 2


def test_unknown_mode_rejected(make_units):
    units = make_units(U0, U1)
    with pytest.raises(ValueError, match="partition mode"):
        partition_program(units, mode="zigzag", jobs=2)


def test_unit_weight_grows_with_code_size(make_units):
    small, large = make_units(U0, U2)
    assert unit_weight(large) > unit_weight(small)


def test_skew_and_to_dict(make_units):
    units = make_units(U0, U1, U2, U3)
    plan = partition_program(units, mode="balanced", jobs=2)
    assert plan.skew >= 1.0
    d = plan.to_dict()
    assert d["mode"] == "balanced"
    assert d["partitions"] == plan.n_partitions
    assert d["units"] == 4
    assert d["skew"] == pytest.approx(plan.skew, abs=1e-4)
    assert d["cross_edges"] == plan.cross_edges


def test_light_pooled_share_keeps_one_partition(make_units):
    units = make_units(U0, U1, U2, U3)
    split = partition_program(units, mode="balanced", jobs=2)
    pooled = sum(split.weights.values()) - max(map(split.load, split.partitions))
    assert split.n_partitions == 2 and pooled > 0
    kept = partition_program(units, mode="balanced", jobs=2, min_pooled=pooled)
    assert kept.partitions == split.partitions
    one = partition_program(units, mode="balanced", jobs=2, min_pooled=pooled + 1)
    assert one.partitions == [["u0.c", "u1.c", "u2.c", "main.c"]]
    assert one.skew == 1.0 and one.cross_edges == 0
    # only balanced plans weigh the pooled share
    assert partition_program(units, mode="1to1", min_pooled=10**6).n_partitions == 4


def test_metrics_record_the_plan_returned(make_units):
    from repro import obs

    units = make_units(U0, U1, U2, U3)
    obs.reset()
    try:
        with obs.enabled_scope():
            plan = partition_program(units, mode="balanced", jobs=2, min_pooled=10**6)
        counters, gauges = obs.metrics.counters(), obs.metrics.gauges()
    finally:
        obs.reset()
    assert plan.n_partitions == 1
    assert counters["wpa.partitions"] == 1
    assert gauges["wpa.partition_skew"] == 1.0
