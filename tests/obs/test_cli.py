"""The ``repro-stats`` CLI (module form: ``python -m repro.obs.cli``)."""

from __future__ import annotations

import json

import pytest

from repro.obs import cli
from tests.conftest import SIMPLE_MAIN


@pytest.fixture()
def source_file(tmp_path):
    p = tmp_path / "prog.c"
    p.write_text(SIMPLE_MAIN)
    return str(p)


class TestFormats:
    def test_chrome_output_is_valid_trace_event_json(self, source_file, capsys):
        assert cli.main([source_file, "--format", "chrome"]) == 0
        doc = json.loads(capsys.readouterr().out)
        events = doc["traceEvents"]
        assert len(events) > 0
        names = {e["name"] for e in events}
        assert "driver.compile" in names
        assert all(e["ph"] == "X" for e in events)

    def test_stats_output_has_counters_and_span_aggregates(self, source_file, capsys):
        assert cli.main([source_file, "--format", "stats"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"]["frontend.functions"] == 1
        assert "driver.compile" in doc["spans"]

    def test_text_output_is_an_indented_tree(self, source_file, capsys):
        assert cli.main([source_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("driver.compile")
        assert "\n  pm.pass" in out
        assert "\n    frontend.parse_and_check" in out

    def test_out_writes_file(self, source_file, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert cli.main([source_file, "--format", "chrome", "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert "wrote chrome output" in capsys.readouterr().err


class TestWorkloadSelection:
    def test_benchmark_by_name(self, capsys):
        assert cli.main(["--benchmark", "wc", "--format", "stats"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spans"]["driver.compile"]["count"] == 1

    def test_suite_compiles_every_benchmark(self, capsys):
        from repro.workloads.suite import BENCHMARKS

        assert cli.main(["--suite", "--format", "stats"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spans"]["driver.compile"]["count"] == len(BENCHMARKS)

    def test_execute_records_machine_spans(self, source_file, capsys):
        assert cli.main([source_file, "--execute", "--format", "stats"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "machine.run" in doc["spans"]
        assert doc["counters"]["machine.cycles.r4600"] > 0


class TestErrors:
    def test_no_workloads_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_benchmark_is_error(self, capsys):
        assert cli.main(["--benchmark", "no-such-benchmark"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_error(self, capsys):
        assert cli.main(["/nonexistent/path.c"]) == 2
        assert "error" in capsys.readouterr().err

    def test_compile_error_is_reported_not_raised(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        assert cli.main([str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_decimal_digit_is_a_positioned_lex_error(self, tmp_path, capsys):
        bad = tmp_path / "sq.c"
        bad.write_text("int main() {\n    return 2\u00b2;\n}\n", encoding="utf-8")
        assert cli.main([str(bad)]) == 2
        assert f"{bad}:2:13: unexpected character '\u00b2'" in capsys.readouterr().err

    def test_bad_unroll_is_usage_error(self, source_file):
        with pytest.raises(SystemExit):
            cli.main([source_file, "--unroll", "0"])
