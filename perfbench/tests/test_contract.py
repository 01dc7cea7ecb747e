"""BENCHMARK.json, the layer map and the command line agree."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import workloads
from perfbench.harness import layer_metrics
from perfbench.tracing import Tracer
from repro.bench import manifest_data

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_file_shape():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(BENCH["workloads"]) <= 8
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[group]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])


def test_layer_map_covers_every_metric_and_workload():
    assert [w["name"] for w in BENCH["workloads"]] == list(LAYERS["workloads"])
    assert list(workloads.WORKLOADS) == list(LAYERS["workloads"])
    assert [m["name"] for m in BENCH["per_layer"]] == list(LAYERS["per_layer"])
    units = {k: u for k, (_v, u) in layer_metrics(Tracer(), {}).items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for name, entry in LAYERS["workloads"].items():
        assert entry["why"] == next(w["why"] for w in BENCH["workloads"] if w["name"] == name)
        assert set(entry["sets"]) == set(workloads.WORKLOADS[name].sets)
        for set_name, digest in entry["sets"].items():
            assert manifest_data.SET_DIGESTS[set_name] == digest


def test_command_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.*"):
        shutil.copy(f, tmp_path / "perfbench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_command_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "whole-program", "--seed", "5",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert any(line.split()[0] == "error_rate" for line in lines if line.strip())
