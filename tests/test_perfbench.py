"""The benchmark's traced run rebinds package functions by name
(perfbench/spans.py), so renaming one of them breaks `--trace 1`. This test
runs the smallest traced workload and checks that every per-layer metric
BENCHMARK.json declares is still reported."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_trace_sweep_reports_every_declared_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace-sweep",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = {m["name"] for m in declared["per_layer"]} - result["metrics"].keys()
    assert not missing
