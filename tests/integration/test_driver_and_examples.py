"""Driver/report CLI and example-script integration tests."""

import io
import subprocess
import sys
from pathlib import Path

import pytest

from repro.driver.report import report_table1, report_table2
from repro.driver.timing import time_benchmark
from repro.workloads.suite import by_name

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class TestReports:
    def test_table1_report_format(self):
        out = io.StringIO()
        report_table1(out)
        text = out.getvalue()
        assert "Table 1" in text
        assert "101.tomcatv" in text
        assert "fp mean" in text

    def test_table2_report_format(self):
        out = io.StringIO()
        report_table2(out)
        text = out.getvalue()
        assert "Table 2" in text
        for b in ("wc", "102.swim", "141.apsi"):
            assert b in text
        assert "int mean" in text

    def test_speedups_single_bench(self):
        from repro.driver.report import report_speedups

        out = io.StringIO()
        report_speedups(out, benches=[by_name("129.compress")])
        text = out.getvalue()
        assert "129.compress" in text
        assert "geomean" in text

    def test_cli_main(self, capsys):
        from repro.driver.report import main

        rc = main(["table1"])
        assert rc == 0
        assert "Table 1" in capsys.readouterr().out


class TestTimingDriver:
    def test_time_benchmark_structure(self):
        t = time_benchmark(by_name("129.compress"))
        assert t.results_match
        assert t.cycles_r4600_gcc > 0
        assert t.cycles_r10000_gcc > 0
        assert 0.5 < t.speedup_r4600 < 2.0
        assert 0.5 < t.speedup_r10000 < 2.0


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "paper_figure2.py",
        "inspect_hli.py",
        "stencil_scheduling.py",
        "unroll_and_maintain.py",
    ],
)
def test_example_runs(script):
    """Every example script must run to completion."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples should print something"
