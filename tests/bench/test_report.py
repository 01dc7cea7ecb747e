"""Report model: aggregation semantics and the four output modes."""

from __future__ import annotations

import json

import pytest

from repro.bench.report import SCHEMA, Report
from repro.bench.stats import Summary


def _report() -> Report:
    r = Report(
        set_name="quick-v1",
        set_digest="ab" * 32,
        iterations=3,
        warmup=1,
        program_digests={"p0": "00" * 32, "p1": "11" * 32, "q0": "22" * 32},
    )
    r.add("session", "p0", "pointer", "cold_seconds", [0.2, 0.3, 0.4])
    r.add("session", "p1", "pointer", "cold_seconds", [0.6, 0.8, 1.0])
    r.add("session", "q0", "float", "cold_seconds", [0.1, 0.1, 0.1])
    r.add("decode", "p0", "pointer", "rtl_decode_seconds", [0.05])
    r.facts["session.warm_hit_ratio"] = 1.0
    return r


class TestAggregation:
    def test_profile_summary_is_over_program_medians(self):
        # pointer medians are 0.3 and 0.8 -> median of medians 0.55;
        # the iteration values must not leak into the population
        by_profile = _report().profile_summary("session", "cold_seconds")
        assert set(by_profile) == {"float", "pointer"}
        assert by_profile["pointer"].count == 2
        assert by_profile["pointer"].median == pytest.approx(0.55)
        assert by_profile["float"].median == pytest.approx(0.1)

    def test_overall_summary(self):
        s = _report().overall_summary("session", "cold_seconds")
        assert s.count == 3
        assert s.median == pytest.approx(0.3)  # medians 0.3, 0.8, 0.1
        assert _report().overall_summary("session", "nope") is None

    def test_paths_and_metrics_sorted(self):
        r = _report()
        assert r.paths() == ["decode", "session"]
        assert r.metrics("session") == ["cold_seconds"]

    def test_add_rejects_empty_values(self):
        with pytest.raises(ValueError):
            _report().add("session", "p", "pointer", "m", [])

    def test_measurement_summary_matches_stats(self):
        rows = _report().rows("session", "cold_seconds")
        m = next(m for m in rows if m.program == "p0")
        assert m.summary == Summary.from_values([0.2, 0.3, 0.4])


class TestJsonRoundTrip:
    def test_full_fidelity(self):
        r = _report()
        back = Report.from_json(r.to_json())
        assert back.set_name == r.set_name
        assert back.set_digest == r.set_digest
        assert back.iterations == r.iterations
        assert back.warmup == r.warmup
        assert back.program_digests == r.program_digests
        assert back.measurements == r.measurements  # raw values survive
        assert back.facts == r.facts

    def test_schema_tag_enforced(self):
        doc = _report().to_dict()
        assert doc["schema"] == SCHEMA
        doc["schema"] = "something-else"
        with pytest.raises(ValueError):
            Report.from_dict(doc)

    def test_json_carries_profile_breakdowns(self):
        doc = json.loads(_report().to_json())
        pointer = doc["profiles"]["session"]["cold_seconds"]["pointer"]
        assert pointer["median"] == pytest.approx(0.55)


class TestCsv:
    def test_round_trip_summaries(self):
        r = _report()
        rows = Report.summaries_from_csv(r.render_csv())
        assert len(rows) == len(r.measurements)
        by_prog = {(row["program"], row["metric"]): row for row in rows}
        s = Summary.from_values([0.2, 0.3, 0.4])
        got = by_prog[("p0", "cold_seconds")]
        assert got["median"] == pytest.approx(s.median)
        assert got["iqr"] == pytest.approx(s.iqr, abs=1e-9)
        assert got["count"] == 3
        assert got["set"] == "quick-v1"
        assert got["profile"] == "pointer"

    def test_header_is_stable(self):
        header = _report().render_csv().splitlines()[0]
        assert header == (
            "set,path,program,profile,metric,"
            "count,mean,median,stddev,iqr,min,max,q1,q3"
        )


class TestRendering:
    def test_brief_mentions_set_and_medians(self):
        text = _report().render_brief()
        assert "quick-v1" in text
        assert "cold_seconds" in text
        assert "3 iterations" in text

    def test_full_breaks_out_profiles(self):
        text = _report().render_full()
        assert "pointer" in text and "float" in text
        assert "per profile" in text

    def test_gate_results_rendered(self):
        r = _report()
        r.gates = [
            {"name": "g", "op": ">=", "value": 1.0, "measured": 2.0,
             "passed": True, "why": ""},
        ]
        assert "gate PASS" in r.render_brief()
