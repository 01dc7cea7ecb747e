"""The ``repro-fuzz`` command-line interface."""

import io
import json

import pytest

from repro.difftest import cli


def test_clean_fuzz_run_exits_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["--count", "4", "--gen", "small", "--quiet"])
    assert code == 0


def test_inject_mode_detects_all_faults_and_exits_zero(capsys):
    code = cli.main(["--inject", "--count", "6", "--gen", "medium"])
    out = capsys.readouterr().out
    assert code == 0
    assert "6/6 seeded faults detected" in out
    assert "DETECTED" in out
    assert "NOT DETECTED" not in out


def test_stats_out_writes_metrics_snapshot(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    from repro.obs import metrics

    metrics.reset()  # the registry is process-global; drop earlier tests' counts
    stats = tmp_path / "stats.json"
    code = cli.main(
        ["--count", "2", "--gen", "small", "--quiet", "--stats-out", str(stats)]
    )
    assert code == 0
    payload = json.loads(stats.read_text())
    assert payload["counters"]["difftest.programs"] == 2
    assert any(k.startswith("difftest.verdict") for k in payload["counters"])


def test_time_budget_stops_early(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    args = cli._build_parser().parse_args(
        ["--count", "100000", "--time-budget", "0.000001", "--gen", "small"]
    )
    code = cli.run_fuzz(args, out=out)
    assert code == 0
    assert "time budget exhausted" in out.getvalue()


def test_bad_count_rejected(capsys):
    assert cli.main(["--count", "0"]) == 2


def test_time_budget_with_jobs_rejected(capsys):
    # the batch fan-out cannot stop early, so the budget would be ignored
    assert cli.main(["--count", "4", "--jobs", "2", "--time-budget", "1"]) == 2
    assert "--time-budget" in capsys.readouterr().err


def test_failing_program_is_reduced_and_persisted(tmp_path, monkeypatch):
    """End to end through main(): arm a fault so a real failure flows
    through reduction into the crash directory and exits non-zero."""
    monkeypatch.chdir(tmp_path)
    from repro.hli import faults

    with faults.inject(faults.DROP_MAINTENANCE):
        code = cli.main(
            ["--count", "12", "--gen", "medium", "--max-failures", "1",
             "--crash-dir", str(tmp_path / "crashes")]
        )
    assert code == 1
    crashes = list((tmp_path / "crashes").glob("*.c"))
    assert crashes, "reduced reproducer was not written"
    text = crashes[0].read_text()
    assert "repro-fuzz reduced reproducer" in text


def test_entry_point_registered():
    tomllib = pytest.importorskip("tomllib")
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    with open(root / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["repro-fuzz"] == "repro.difftest.cli:main"
