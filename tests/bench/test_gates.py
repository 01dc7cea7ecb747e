"""Regression gates: threshold evaluation and the CLI exit-code contract.

The contract CI relies on: ``0`` all gates pass, ``1`` a measured
regression, ``2`` the gates could not be evaluated at all.  A broken
harness exiting 0 would silently disable the gate, so the distinction
between 1 and 2 is load-bearing and pinned here.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import cli
from repro.bench.gates import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_REGRESSION,
    Gate,
    GateError,
    evaluate,
    load_gates,
)
from repro.bench.report import Report


def _report() -> Report:
    r = Report(set_name="quick-v1", set_digest="cd" * 32, iterations=3, warmup=1)
    r.add("session", "p0", "pointer", "warm_speedup", [4.0])
    r.add("session", "p1", "pointer", "warm_speedup", [6.0])
    r.add("session", "q0", "float", "warm_speedup", [2.0])
    r.facts["session.warm_hit_ratio"] = 1.0
    r.facts["decode.roundtrip_ok"] = True
    return r


class TestGateEvaluation:
    def test_pass_and_fail(self):
        report = _report()
        ok, bad = evaluate(
            report,
            [
                Gate("session", "warm_speedup", ">=", 1.5),   # median 4.0
                Gate("session", "warm_speedup", ">=", 100.0),
            ],
        )
        assert ok.passed and ok.measured == pytest.approx(4.0)
        assert not bad.passed

    def test_profile_restriction(self):
        # pointer medians [4, 6] -> 5.0; float -> 2.0
        (res,) = evaluate(
            _report(), [Gate("session", "warm_speedup", ">=", 4.5, profile="pointer")]
        )
        assert res.passed and res.measured == pytest.approx(5.0)
        (res,) = evaluate(
            _report(), [Gate("session", "warm_speedup", ">=", 4.5, profile="float")]
        )
        assert not res.passed

    def test_stat_selection(self):
        (res,) = evaluate(
            _report(), [Gate("session", "warm_speedup", "<=", 6.0, stat="max")]
        )
        assert res.passed and res.measured == pytest.approx(6.0)

    def test_fact_gate(self):
        (res,) = evaluate(
            _report(), [Gate("fact", "session.warm_hit_ratio", "==", 1.0)]
        )
        assert res.passed and res.measured == 1.0

    def test_unknown_metric_is_an_error_not_a_pass(self):
        with pytest.raises(GateError):
            evaluate(_report(), [Gate("session", "no_such_metric", ">=", 0.0)])

    def test_unknown_fact_profile_stat_op(self):
        for gate in (
            Gate("fact", "missing.key", ">=", 0.0),
            Gate("session", "warm_speedup", ">=", 0.0, profile="ghost"),
            Gate("session", "warm_speedup", ">=", 0.0, stat="p99"),
            Gate("session", "warm_speedup", "~=", 0.0),
        ):
            with pytest.raises(GateError):
                evaluate(_report(), [gate])

    def test_boolean_fact_rejected(self):
        with pytest.raises(GateError):
            evaluate(_report(), [Gate("fact", "decode.roundtrip_ok", "==", 1.0)])

    def test_result_dict_shape(self):
        (res,) = evaluate(_report(), [Gate("session", "warm_speedup", ">=", 1.0,
                                           why="TRAJECTORY.md: warm ~4x")])
        doc = res.to_dict()
        assert doc["passed"] is True
        assert doc["why"] == "TRAJECTORY.md: warm ~4x"
        assert doc["name"] == "session.warm_speedup.median"


class TestBaselineLoading:
    def test_load_round_trip(self, tmp_path):
        baseline = tmp_path / "quick-v1.json"
        baseline.write_text(json.dumps({
            "set": "quick-v1",
            "gates": [
                {"path": "session", "metric": "warm_speedup", "op": ">=",
                 "value": 1.5, "why": "warm must win"},
                {"path": "fact", "metric": "session.warm_hit_ratio",
                 "op": "==", "value": 1.0},
            ],
        }))
        set_name, gates = load_gates(str(baseline))
        assert set_name == "quick-v1"
        assert [g.passed for g in evaluate(_report(), gates)] == [True, True]

    def test_missing_file(self):
        with pytest.raises(GateError):
            load_gates("/nonexistent/baseline.json")

    def test_malformed_baseline(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"set": "quick-v1"}')  # no gates key
        with pytest.raises(GateError):
            load_gates(str(p))
        p.write_text("not json at all")
        with pytest.raises(GateError):
            load_gates(str(p))


class TestCliExitContract:
    """Drive the real CLI on the smallest set: the exit codes are API."""

    ARGS = ["--set", "quick-v1", "--iterations", "1", "--warmup", "0",
            "--paths", "decode", "--quiet"]

    def test_seeded_regression_exits_1(self, tmp_path, capsys):
        baseline = tmp_path / "quick-v1.json"
        baseline.write_text(json.dumps({
            "set": "quick-v1",
            "gates": [{"path": "decode", "metric": "rtl_decode_seconds",
                       "op": "<=", "value": 0.0,
                       "why": "impossible on purpose: decode time cannot be 0"}],
        }))
        assert cli.main(self.ARGS + ["--gate", str(baseline)]) == EXIT_REGRESSION
        assert "FAILED" in capsys.readouterr().err

    def test_passing_gate_exits_0(self, tmp_path, capsys):
        baseline = tmp_path / "quick-v1.json"
        baseline.write_text(json.dumps({
            "set": "quick-v1",
            "gates": [{"path": "decode", "metric": "rtl_decode_seconds",
                       "op": ">", "value": 0.0}],
        }))
        out = tmp_path / "report.json"
        code = cli.main(self.ARGS + ["--gate", str(baseline), "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["gates"] and all(g["passed"] for g in doc["gates"])
        assert "pass" in capsys.readouterr().err

    def test_malformed_baseline_exits_2(self, tmp_path, capsys):
        baseline = tmp_path / "quick-v1.json"
        baseline.write_text("{broken")
        assert cli.main(self.ARGS + ["--gate", str(baseline)]) == EXIT_ERROR
        capsys.readouterr()

    def test_wrong_set_baseline_exits_2(self, tmp_path, capsys):
        baseline = tmp_path / "other.json"
        baseline.write_text(json.dumps({"set": "suite-v1", "gates": []}))
        assert cli.main(self.ARGS + ["--gate", str(baseline)]) == EXIT_ERROR
        capsys.readouterr()

    def test_unknown_set_exits_2(self, capsys):
        assert cli.main(["--set", "nope-v9", "--quiet"]) == EXIT_ERROR
        capsys.readouterr()

    def test_empty_paths_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--set", "quick-v1", "--paths", ",", "--quiet"])
        assert exc.value.code == EXIT_ERROR
        assert "--paths selects no path" in capsys.readouterr().err

    def test_jobs_without_wpa_path_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(self.ARGS + ["--jobs", "2"])
        assert exc.value.code == EXIT_ERROR
        assert "--jobs requires the wpa path" in capsys.readouterr().err
