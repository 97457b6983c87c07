"""End-to-end and per-layer benchmark of the cached denoising loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload policy-bound --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process

Each run builds its inputs from --seed, runs an untimed check pass and one
warm-up iteration, then times whole iterations for --seconds (and until every
sub-seed has been timed equally often). With --trace 0 it reports the
end-to-end metrics, and with --trace 1 the per-layer metrics of a second,
traced phase (see perfbench/README.md). The last line of standard output is
one JSON object: correct, attempted, failed, metrics.

BLAS is pinned to one thread before numpy is imported, so timings do not
depend on how many threads a BLAS build starts on a given machine.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import worldcache  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import worldcache from {ROOT / 'src'}: {exc}")
if Path(worldcache.__file__).resolve().parent != ROOT / "src" / "worldcache":
    sys.exit(f"perfbench: worldcache imported from {worldcache.__file__}, not this checkout")

import numpy as np  # noqa: E402
from worldcache import kernels  # noqa: E402

from spans import Spans  # noqa: E402
from workloads import Ledger, make_workloads, median, require  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPS = 9       # set-up samples per run at least, for a median
WARMUP_ITERATIONS = 1
MIN_ROUNDS = 3       # timed iterations per phase at least
EXPECTED_PATH = HERE / "expected.json"
WORK_DIR = ROOT / ".perfbench_work"
_clock = time.perf_counter

END_TO_END_UNITS = {
    "setup_s": "s",
    "cached_run_s": "s",
    "oracle_run_s": "s",
    "wall_speedup": "x",
    "sweep_s": "s",
    "peak_mib": "MiB",
    "final_rel_err": "ratio",
    "full_evals": "count",
}


def environment() -> dict:
    """Versions and thread settings this run measured under."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the layout differs across numpy versions
        blas_name = "unknown"
    np.ones((256, 256)) @ np.ones((256, 256))  # lets a threaded BLAS start its pool
    task_dir = Path("/proc/self/task")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "kernels_backend": kernels.BACKEND,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "process_threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _diff(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def timed_phase(workload, subs, inputs, ledger, seconds, full, whole_cycles):
    """Timed iterations for `seconds`, round robin over the sub-seeds.

    With `whole_cycles` the phase ends only after a whole cycle, so every
    sub-seed is timed equally often and the median is a median over them.
    """
    spans = Spans(workload.backbone_classes, full)
    iteration_seconds, per_iteration = [], []
    try:
        deadline = _clock() + seconds
        rounds = 0
        while (
            rounds < MIN_ROUNDS
            or _clock() < deadline
            or (whole_cycles and rounds % len(subs))
        ):
            before = spans.snapshot() if full else None
            it = workload.iterate(inputs[subs[rounds % len(subs)]], ledger)
            if it.ok:
                iteration_seconds.append(it.seconds)
            if full:
                per_iteration.append(_diff(spans.snapshot(), before))
                spans.forget_groupings()
            rounds += 1
    finally:
        spans.uninstall()
    return spans, iteration_seconds, per_iteration


def quality_of(workload, inputs, ledger, subs):
    results = [ledger.call(f"check seed={s}", workload.check, inputs[s]) for s in subs]
    ok = [q for q in results if q is not None]
    if not ok:
        return None
    return {
        "full_evals": median(q.full_evals for q in ok),
        "final_rel_err": median(q.final_rel_err for q in ok),
    }


def check_expected(workload, seed, quality, ledger) -> None:
    """For recorded seeds, the deterministic figures must match exactly."""
    recorded = json.loads(EXPECTED_PATH.read_text())["seeds"].get(str(seed), {})
    want = recorded.get(workload.name)
    if want is None or quality is None:
        return

    def compare():
        require(
            quality["full_evals"] == want["full_evals"],
            f"full_evals {quality['full_evals']} != recorded {want['full_evals']}",
        )
        # Equal up to BLAS summation order, which may differ between CPUs.
        require(
            math.isclose(quality["final_rel_err"], want["final_rel_err"], rel_tol=1e-9),
            f"final_rel_err {quality['final_rel_err']!r} != recorded {want['final_rel_err']!r}",
        )

    ledger.call(f"expected values seed={seed}", compare)


def _setup(workload, subs):
    samples, inputs = [], {}
    for i in range(max(SETUP_REPS, len(subs))):
        s = subs[i % len(subs)]
        start = _clock()
        inputs[s] = workload.setup(s)
        samples.append(_clock() - start)
    return median(samples), inputs


def measure(workload, seed, seconds, trace):
    """Returns (metrics {name: (value, unit)}, ledger, report lines)."""
    ledger = Ledger()
    subs = workload.sub_seeds(seed)
    setup_s, inputs = _setup(workload, subs)
    quality = quality_of(workload, inputs, ledger, subs)
    check_expected(workload, seed, quality, ledger)
    for _ in range(WARMUP_ITERATIONS):
        workload.iterate(inputs[subs[0]], ledger)

    timed = subs[: workload.n_timed]
    if not trace:
        spans, iteration_seconds, _ = timed_phase(
            workload, timed, inputs, ledger, seconds, full=False, whole_cycles=True
        )
        tracemalloc.start()
        try:
            peak = workload.iterate(inputs[subs[0]], ledger).peak_bytes
        finally:
            tracemalloc.stop()
        metrics, samples = end_to_end(
            setup_s, spans, iteration_seconds, peak, quality
        )
        lines = [
            _format(name, value, unit, samples.get(name))
            for name, (value, unit) in metrics.items()
        ]
    else:
        untraced, _, _ = timed_phase(
            workload, timed, inputs, ledger, seconds / 2, full=False, whole_cycles=False
        )
        spans, _, per_iteration = timed_phase(
            workload, timed, inputs, ledger, seconds / 2, full=True, whole_cycles=False
        )
        metrics = per_layer(spans, per_iteration, untraced)
        lines = [_format(name, value, unit, None) for name, (value, unit) in metrics.items()]
        lines.append(f"traced iterations: {len(per_iteration)}")
    lines += workload.describe(inputs)
    share = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    lines.append(f"failed_share {share!r} ratio ({ledger.failed} of {ledger.attempted} operations)")
    return metrics, ledger, lines


def end_to_end(setup_s, spans, iteration_seconds, peak, quality):
    cached = spans.cached_run_durations
    oracle = spans.oracle_run_durations
    metrics = {"setup_s": setup_s}
    samples = {"cached_run_s": cached, "oracle_run_s": oracle, "sweep_s": iteration_seconds}
    if cached and oracle and iteration_seconds:
        metrics["cached_run_s"] = median(cached)
        metrics["oracle_run_s"] = median(oracle)
        metrics["wall_speedup"] = metrics["oracle_run_s"] / metrics["cached_run_s"]
        metrics["sweep_s"] = median(iteration_seconds)
    metrics["peak_mib"] = peak / 2**20
    if quality is not None:
        metrics.update(quality)
    return {k: (metrics[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS if k in metrics}, samples


def per_layer(spans, per_iteration, untraced):
    """Per-layer metrics: span seconds and counts are medians per iteration;
    shares, ratios and per-step figures are taken over the whole phase."""

    def per_iter(key):
        return median(d.get(key, 0) for d in per_iteration)

    def ratio(num, den):
        return num / den if den else 0.0

    c = spans.counts
    out = {}

    def seconds(name, span):
        out[name] = (per_iter(f"{span}:s"), "s")

    def calls(name, span):
        out[name] = (per_iter(f"{span}:calls"), "count")

    seconds("backbone_sim.evaluate_s", "backbone_sim.evaluate")
    calls("backbone_sim.evaluate_calls", "backbone_sim.evaluate")
    for kind in ("cached", "oracle"):
        share = ratio(c[f"{kind}.evaluate_s"], c[f"{kind}.run_s"])
        out[f"backbone_sim.evaluate_share_{kind}"] = (share, "ratio")
    seconds("backbone_sim.read_trace_s", "backbone_sim.read_trace")
    calls("backbone_sim.read_trace_calls", "backbone_sim.read_trace")
    seconds("backbone_sim.write_trace_s", "backbone_sim.write_trace")
    out["backbone_sim.trace_bytes"] = (per_iter("backbone_sim.trace_bytes"), "bytes")
    seconds("core.tokenmatrix_s", "core.tokenmatrix")
    calls("core.tokenmatrix_inits", "core.tokenmatrix")
    seconds("curvature.push_full_s", "curvature.push_full")
    seconds("curvature.compute_curvature_s", "curvature.compute_curvature")
    seconds("curvature.group_tokens_s", "curvature.group_tokens")
    out["curvature.groupings_built"] = (per_iter("curvature.groupings_built"), "count")
    out["curvature.grouping_read_ratio"] = (
        ratio(c["curvature.groupings_read"], c["curvature.groupings_built"]), "ratio")
    seconds("predictor.predict_s", "predictor.predict")
    calls("predictor.predict_calls", "predictor.predict")
    seconds("skipper.drift_score_s", "skipper.drift_score")
    calls("skipper.drift_score_calls", "skipper.drift_score")
    seconds("skipper.should_full_s", "skipper.should_full")
    for kernel in ("curvature_rows", "blend_rows", "drift_mean", "row_norms"):
        seconds(f"kernels.{kernel}_s", f"kernels.{kernel}")
    out["kernels.bytes_computed"] = (per_iter("kernels.bytes"), "array_bytes")
    seconds("pipeline.scheduler_step_s", "pipeline.scheduler_step")
    out["pipeline.run_self_s"] = (per_iter("pipeline.run:self"), "s")
    calls("pipeline.oracle_runs", "pipeline.oracle_run")

    o_full = ratio(c["cached.full_overhead_s"], c["cached.full_steps"])
    o_cache = ratio(c["cached.cache_step_s"], c["cached.cache_steps"])
    o_oracle = ratio(c["oracle.full_overhead_s"], c["oracle.full_steps"])
    out["pipeline.overhead_per_full_ms"] = (o_full * 1e3, "ms")
    out["pipeline.overhead_per_cache_ms"] = (o_cache * 1e3, "ms")
    # Backbone cost per call at which oracle and cached runs take equal time:
    # S (c + o_oracle) = F (c + o_full) + C o_cache, per run on average.
    f_mean = ratio(c["cached.full_steps"], c["cached.runs"])
    c_mean = ratio(c["cached.cache_steps"], c["cached.runs"])
    s_mean = ratio(c["oracle.full_steps"] + c["oracle.cache_steps"], c["oracle.runs"])
    break_even = ratio(f_mean * o_full + c_mean * o_cache - s_mean * o_oracle, s_mean - f_mean)
    out["pipeline.break_even_ms"] = (break_even * 1e3, "ms")

    seconds("bench.compare_runs_s", "bench.compare_runs")
    seconds("config.resolve_s", "config.resolve")
    calls("cli.cells", "cli._sweep_worker")
    traced = spans.cached_run_durations
    plain = untraced.cached_run_durations
    overhead = median(traced) - median(plain) if traced and plain else 0.0
    out["trace.overhead_s"] = (overhead, "s")
    return out


def _format(name, value, unit, samples) -> str:
    text = f"{name} {value!r} {unit}"
    if samples:
        n = len(samples)
        text += f"  (median of {n}"
        # Highest percentile with at least ten samples above it, when that
        # percentile is above the median.
        pct = math.floor(100 * (1 - 10 / n))
        if pct > 50:
            text += f", p{pct}={sorted(samples)[math.ceil(pct / 100 * n) - 1]!r}"
        text += ")"
    return text


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def record_expected(workloads, seeds) -> None:
    """Write the check pass's deterministic figures for `seeds`."""
    table = {}
    for seed in seeds:
        for workload in workloads.values():
            ledger = Ledger()
            subs = workload.sub_seeds(seed)
            _, inputs = _setup(workload, subs)
            quality = quality_of(workload, inputs, ledger, subs)
            if ledger.failed or quality is None:
                sys.exit(f"perfbench: check pass failed for {workload.name} seed={seed}")
            table.setdefault(str(seed), {})[workload.name] = quality
    EXPECTED_PATH.write_text(
        json.dumps({"environment": environment(), "seeds": table}, indent=1) + "\n"
    )
    print(f"wrote {EXPECTED_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-expected", metavar="N", type=int,
        help="write expected.json for seeds 0..N-1 instead of measuring",
    )
    args = parser.parse_args(argv)

    work_dir = WORK_DIR / str(os.getpid())
    workloads = make_workloads(work_dir)
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(workloads)} or all")
    try:
        if args.record_expected is not None:
            record_expected(workloads, range(args.record_expected))
            return 0
        env = environment()
        print("environment " + json.dumps(env, sort_keys=True))
        total = {"attempted": 0, "failed": 0}
        combined = {}
        for name in names:
            print(f"== {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
            metrics, ledger, lines = measure(workloads[name], args.seed, args.seconds, args.trace)
            for line in lines:
                print(line)
            total["attempted"] += ledger.attempted
            total["failed"] += ledger.failed
            prefix = f"{name}." if len(names) > 1 else ""
            combined.update({prefix + k: v for k, v in metrics.items()})
        finite = all(math.isfinite(v) for v, _ in combined.values())
        if not finite:
            print("FAILED: a metric is not finite", file=sys.stderr)
        correct = total["failed"] == 0 and finite and total["attempted"] > 0
        result = {
            "correct": correct,
            "attempted": total["attempted"],
            "failed": total["failed"],
            "metrics": {
                k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                for k, (v, u) in combined.items()
            },
        }
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
