"""The benchmark's traced run rebinds package functions by name
(perfbench/spans.py), so renaming one of them breaks `--trace 1`. These tests
run the smallest traced workload and check that every per-layer metric
BENCHMARK.json declares is still reported, and run policy-bound, whose calls
(`run`, `oracle_run(record_outputs=False)`, `cache_count`, `final_latent`)
the trace workload does not make, and check that it is correct."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_trace_sweep_reports_every_declared_per_layer_metric():
    result = _bench("--workload", "trace-sweep", "--trace", "1")
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = {m["name"] for m in declared["per_layer"]} - result["metrics"].keys()
    assert not missing
    # record writes its trace and the sweep reads it, each once, through the
    # names perfbench rebinds: 3932661 bytes is the 512x32x60 trace
    metric = {name: m["value"] for name, m in result["metrics"].items()}
    assert metric["backbone_sim.write_trace_s"] > 0
    assert metric["backbone_sim.read_trace_calls"] == 1
    assert metric["backbone_sim.trace_bytes"] == 2 * 3932661
    # the groupings the refreshes build and the forecasts they feed, counted
    # through the names the loop calls: a call the rebinding misses reads 0
    assert metric["curvature.groupings_built"] == 242
    assert metric["curvature.grouping_read_ratio"] == 123 / 242
    assert metric["predictor.predict_calls"] == 454
    assert metric["skipper.drift_score_calls"] == 214
    # the kernels those calls make, reached through the module attribute: a
    # kernel inlined into its caller would read 0 in the per-layer report
    assert metric["kernels.blend_rows_s"] > 0
    assert metric["kernels.drift_mean_s"] > 0


def test_policy_bound_is_correct():
    assert _bench("--workload", "policy-bound")["correct"] is True
