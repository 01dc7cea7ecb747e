"""Artifact-validation driver tests (quick mode: no speedup sweep)."""

import json

import pytest

import repro.driver.validate as validate_mod
from repro.driver.validate import Claim, ValidationReport, main, validate


def test_quick_validation(tmp_path):
    out = tmp_path / "RESULTS.json"
    report = validate(include_speedups=False, out_path=str(out))
    assert report.all_passed, [c.name for c in report.claims if not c.passed]
    payload = json.loads(out.read_text())
    assert len(payload["table1"]) == 14
    assert len(payload["table2"]) == 14
    assert payload["speedups"] == []
    names = {c["name"] for c in payload["claims"]}
    assert {
        "t1_fp_denser",
        "t2_substantial_reduction",
        "mapping_complete",
        "hli_lint_clean",
    } <= names
    # every claim carries its own wall time; phases carry theirs
    assert all(c["seconds"] >= 0.0 for c in payload["claims"])
    assert {"tables", "claims", "lint"} <= set(payload["phase_seconds"])
    assert payload["elapsed_seconds"] >= 0.0


def test_trace_out_writes_chrome_trace(tmp_path):
    out = tmp_path / "RESULTS.json"
    trace_path = tmp_path / "validate_trace.json"
    validate(include_speedups=False, out_path=str(out), trace_out=str(trace_path))
    doc = json.loads(trace_path.read_text())
    events = doc["traceEvents"]
    assert len(events) > 0
    names = {e["name"] for e in events}
    assert "driver.validate" in names
    assert "validate.tables" in names


class TestExitCode:
    """`python -m repro.driver.validate` is a CI gate: non-zero on failure."""

    def _stub(self, monkeypatch, passed):
        report = ValidationReport()
        report.claims.append(Claim("stub", "stubbed claim", passed))
        monkeypatch.setattr(validate_mod, "validate", lambda **kw: report)

    def test_main_nonzero_when_claim_fails(self, monkeypatch):
        self._stub(monkeypatch, passed=False)
        assert main(["--quick"]) == 1

    def test_main_zero_when_all_pass(self, monkeypatch):
        self._stub(monkeypatch, passed=True)
        assert main(["--quick", "--no-lint"]) == 0

    def test_partition_without_whole_program_exits_2(self, monkeypatch, capsys):
        self._stub(monkeypatch, passed=True)
        with pytest.raises(SystemExit) as exc:
            main(["--quick", "--partition", "balanced"])
        assert exc.value.code == 2
        assert "--partition requires --whole-program" in capsys.readouterr().err
