"""The benchmark's three workloads and the checks on their outputs.

A workload turns one benchmark seed into a fixed list of sub-seeds, builds
the inputs for each (`setup`), runs an untimed check pass that yields the
deterministic quality figures (`check`), and then runs timed iterations
(`iterate`) whose outputs are checked against the check pass. Every call into
the program is one operation in the `Ledger`: an operation that raises or
fails a check counts as failed, whatever its exit code.

    policy-bound    mixed, 4096x64, 50 steps, eta=0.2, plain SyntheticBackbone.
                    The backbone is about a fifth of the oracle's time, so
                    the kernels/curvature/core/pipeline overhead shows.
    backbone-bound  mixed, 1024x64, 50 steps, eta=0.2, CostedBackbone (depth
                    2, about 25 ms per call). The backbone dominates, so the
                    policy's real wall-clock saving shows.
    trace-sweep     `worldcache record` of a turnpoint 512x32 trace with 60
                    steps, then `worldcache sweep` over it (5 etas x 2 skip
                    policies, --jobs 1), in-process through cli.main. The
                    only workload that drives cli, config, bench and trace I/O.

At 1024x64 the mixed preset takes 19 FULL steps on about a quarter of the
seeds and 26 on the rest, so backbone-bound reports medians over sub-seeds:
its quality figures over 17 cheap plain-backbone check runs, its times over
costed runs that cycle through the first 11. The other two workloads give the
same FULL counts on every seed tried and use the benchmark seed alone.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from worldcache import cli, pipeline
from worldcache.backbone_sim import (
    Preset,
    SyntheticBackbone,
    SyntheticSpec,
    TraceBackbone,
    read_trace,
)
from worldcache.predictor import PredictorConfig
from worldcache.skipper import SkipConfig

from costed_backbone import CostedBackbone

_clock = time.perf_counter
_TINY = 1e-30


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Ledger:
    """Counts operations attempted and failed; reports each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, label, fn, *args):
        """Run one operation; return its result, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.failed += 1
            print(f"FAILED {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


def timed(fn, *args):
    """(result, seconds, traced peak bytes) of one call into the program.

    The traced peak is the highest traced memory during the call (0 when
    tracemalloc is off), so checks made after the call never count.
    """
    if tracemalloc.is_tracing():
        tracemalloc.reset_peak()
    start = _clock()
    out = fn(*args)
    elapsed = _clock() - start
    peak = tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else 0
    return out, elapsed, peak


@dataclass
class Quality:
    """Deterministic outputs of the check pass for one sub-seed."""

    full_evals: int
    final_rel_err: float


@dataclass
class Iteration:
    seconds: float = 0.0  # sum of the operations' wall times
    peak_bytes: int = 0
    ok: bool = True

    def add(self, result) -> None:
        """Account one operation's `timed` result (None when it failed)."""
        if result is None:
            self.ok = False
            return
        _, seconds, peak = result
        self.seconds += seconds
        self.peak_bytes = max(self.peak_bytes, peak)


def rel_err(a: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(a - ref) / (np.linalg.norm(ref) + _TINY))


# ---------------------------------------------------------------------------
# oracle_run + cached run pairs
# ---------------------------------------------------------------------------


@dataclass
class PairInputs:
    seed: int
    plain: SyntheticBackbone
    backbone: object  # the plain backbone or a CostedBackbone around it
    scheduler: pipeline.EulerScheduler
    z_init: object
    ref: dict = field(default_factory=dict)
    checksums: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PairWorkload:
    name: str
    n_tokens: int
    dims: int
    depth: int  # CostedBackbone depth; 0 keeps the plain SyntheticBackbone
    n_sub_seeds: int  # checked sub-seeds, for the quality medians
    n_timed: int  # leading sub-seeds that the timed phase cycles through
    rel_err_ceiling: float
    steps: int = 50
    eta: float = 0.2

    @property
    def backbone_classes(self):
        return (SyntheticBackbone, CostedBackbone)

    def sub_seeds(self, seed: int) -> list[int]:
        return [seed * self.n_sub_seeds + j for j in range(self.n_sub_seeds)]

    def setup(self, seed: int) -> PairInputs:
        plain = SyntheticBackbone(
            SyntheticSpec(n_tokens=self.n_tokens, dims=self.dims, seed=seed)
        )
        backbone = CostedBackbone(plain, self.depth, seed) if self.depth else plain
        scheduler = pipeline.EulerScheduler(pipeline.uniform_grid(self.steps))
        return PairInputs(seed, plain, backbone, scheduler, backbone.initial_latent())

    def _oracle(self, backbone, inp: PairInputs):
        return pipeline.oracle_run(
            backbone, inp.scheduler, inp.z_init, record_outputs=False
        )

    def _cached(self, backbone, inp: PairInputs):
        return pipeline.run(
            backbone,
            inp.scheduler,
            inp.z_init,
            PredictorConfig(),
            SkipConfig(eta=self.eta),
            record_outputs=False,
        )

    def _check_counts(self, res, label: str) -> None:
        require(
            res.full_count + res.cache_count == self.steps,
            f"{label}: full {res.full_count} + cache {res.cache_count} != {self.steps} steps",
        )
        require(
            bool(np.isfinite(res.final_latent.data).all()),
            f"{label}: final latent is not finite",
        )

    def check(self, inp: PairInputs) -> Quality:
        """Plain-backbone oracle and cached run; records the references."""
        oracle = self._oracle(inp.plain, inp)
        self._check_counts(oracle, "oracle_run")
        require(oracle.cache_count == 0, f"oracle_run cached {oracle.cache_count} steps")
        cached = self._cached(inp.plain, inp)
        self._check_counts(cached, "run")
        err = rel_err(cached.final_latent.data, oracle.final_latent.data)
        require(math.isfinite(err), f"final_rel_err is not finite: {err}")
        require(
            err < self.rel_err_ceiling,
            f"final_rel_err {err:.3e} is not under the ceiling {self.rel_err_ceiling:g}",
        )
        inp.ref = {"oracle": oracle, "cached": cached}
        return Quality(cached.full_count, err)

    def _run_checked(self, kind: str, inp: PairInputs):
        """One timed call; its output must equal the plain backbone's bit for bit."""
        run_fn = self._oracle if kind == "oracle" else self._cached
        if self.depth:
            inp.backbone.checksum = 0.0
        result = timed(run_fn, inp.backbone, inp)
        res, ref = result[0], inp.ref[kind]
        self._check_counts(res, kind)
        require(
            (res.full_count, res.cache_count) == (ref.full_count, ref.cache_count),
            f"{kind}: {res.full_count} FULL steps, check pass had {ref.full_count}",
        )
        require(
            bool(np.array_equal(res.final_latent.data, ref.final_latent.data)),
            f"{kind}: final latent differs from the plain backbone's",
        )
        if self.depth:
            checksum = inp.backbone.checksum
            require(math.isfinite(checksum), f"{kind}: costed checksum not finite")
            first = inp.checksums.setdefault(kind, checksum)
            require(checksum == first, f"{kind}: costed checksum changed between runs")
        return result

    def iterate(self, inp: PairInputs, ledger: Ledger) -> Iteration:
        it = Iteration()
        it.add(ledger.call(f"oracle_run seed={inp.seed}", self._run_checked, "oracle", inp))
        it.add(ledger.call(f"run seed={inp.seed}", self._run_checked, "cached", inp))
        return it

    def describe(self, inputs: dict) -> list[str]:
        first = next(iter(inputs.values()))
        return [
            f"costed checksum seed={first.seed} {kind}={value!r}"
            for kind, value in sorted(first.checksums.items())
        ]


# ---------------------------------------------------------------------------
# worldcache record + worldcache sweep through the CLI
# ---------------------------------------------------------------------------

SWEEP_ETAS = "0.05,0.1,0.2,0.4,0.8"
SWEEP_SKIPPERS = "cas,fixed-interval"
SWEEP_CELLS = len(SWEEP_ETAS.split(",")) * len(SWEEP_SKIPPERS.split(","))
SWEEP_COLUMNS = [
    "eta", "skipper", "seed", "steps", "full_count", "cache_count",
    "full_ratio", "est_speedup", "final_rel_err", "mean_rel_err",
]


@dataclass
class SweepInputs:
    seed: int
    backbone: SyntheticBackbone
    scheduler: pipeline.EulerScheduler
    z_init: object
    record_argv: list[str]
    sweep_argv: list[str]
    trace_path: Path
    csv_path: Path
    ref_trace: bytes = b""
    ref_csv: str = ""


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    work_dir: Path
    rel_err_ceiling: float
    n_tokens: int = 512
    dims: int = 32
    steps: int = 60

    @property
    def backbone_classes(self):
        return (SyntheticBackbone, TraceBackbone)

    n_timed = 1

    def sub_seeds(self, seed: int) -> list[int]:
        return [seed]

    def setup(self, seed: int) -> SweepInputs:
        spec = SyntheticSpec(
            n_tokens=self.n_tokens, dims=self.dims, preset=Preset.TURNPOINT, seed=seed
        )
        backbone = SyntheticBackbone(spec)
        scheduler = pipeline.EulerScheduler(pipeline.uniform_grid(self.steps))
        out = self.work_dir / f"{self.name}-{seed}"
        out.mkdir(parents=True, exist_ok=True)
        trace_path = out / "reference.wct"
        workload_flags = [
            "--preset", "turnpoint",
            "--n-tokens", str(self.n_tokens),
            "--dims", str(self.dims),
            "--steps", str(self.steps),
            "--seed", str(seed),
        ]
        record_argv = ["record", str(trace_path), *workload_flags, "--out", str(out)]
        sweep_argv = [
            "sweep",
            "--set", "workload.kind=trace",
            "--set", f"workload.trace_path={trace_path}",
            "--set", f"sweep.eta={SWEEP_ETAS}",
            "--set", f"sweep.skipper={SWEEP_SKIPPERS}",
            "--seeds", str(seed),
            "--jobs", "1",
            "--out", str(out),
            "--run-id", "sweep",
        ]
        return SweepInputs(
            seed, backbone, scheduler, backbone.initial_latent(),
            record_argv, sweep_argv, trace_path, out / "sweep.sweep.csv",
        )

    @staticmethod
    def _cli(argv: list[str]) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        require(code == 0, f"worldcache {argv[0]} exited {code}: {stderr.getvalue().strip()}")
        require(
            not stderr.getvalue(),
            f"worldcache {argv[0]} reported: {stderr.getvalue().strip()}",
        )

    def _rows(self, inp: SweepInputs) -> list[dict]:
        with open(inp.csv_path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            require(
                reader.fieldnames == SWEEP_COLUMNS,
                f"sweep CSV header {reader.fieldnames} != {SWEEP_COLUMNS}",
            )
            rows = list(reader)
        # `worldcache sweep` exits 0 even when cells fail, so count the rows.
        require(
            len(rows) == SWEEP_CELLS,
            f"sweep CSV has {len(rows)} rows for {SWEEP_CELLS} cells",
        )
        for row in rows:
            steps, full, cache = (int(row[k]) for k in ("steps", "full_count", "cache_count"))
            require(steps == self.steps, f"sweep row has {steps} steps, not {self.steps}")
            require(full + cache == steps, f"sweep row: full {full} + cache {cache} != {steps}")
            for key in SWEEP_COLUMNS[5:]:
                require(math.isfinite(float(row[key])), f"sweep row {key}={row[key]}")
            err = float(row["final_rel_err"])
            require(
                err < self.rel_err_ceiling,
                f"sweep row final_rel_err {err:.3e} is not under {self.rel_err_ceiling:g}",
            )
        return rows

    def check(self, inp: SweepInputs) -> Quality:
        """Record and sweep once; the trace must hold the oracle's outputs."""
        self._cli(inp.record_argv)
        oracle = pipeline.oracle_run(inp.backbone, inp.scheduler, inp.z_init)
        trace = read_trace(inp.trace_path)
        grid = inp.scheduler.timesteps
        require(
            trace.timesteps == tuple(t.value for t in grid[: self.steps]),
            "trace timesteps differ from the scheduler grid",
        )
        for i, (got, want) in enumerate(zip(trace.outputs, oracle.surrogates)):
            require(
                bool(np.array_equal(got.data, want.data.astype(np.float32))),
                f"trace block {i} differs from the oracle output",
            )
        self._cli(inp.sweep_argv)
        rows = self._rows(inp)
        inp.ref_trace = inp.trace_path.read_bytes()
        inp.ref_csv = inp.csv_path.read_text(encoding="utf-8")
        return Quality(
            sum(int(r["full_count"]) for r in rows),
            max(float(r["final_rel_err"]) for r in rows),
        )

    def _record(self, inp: SweepInputs):
        result = timed(self._cli, inp.record_argv)
        require(inp.trace_path.read_bytes() == inp.ref_trace, "trace bytes changed")
        return result

    def _sweep(self, inp: SweepInputs):
        result = timed(self._cli, inp.sweep_argv)
        self._rows(inp)
        require(
            inp.csv_path.read_text(encoding="utf-8") == inp.ref_csv,
            "sweep CSV differs from the check pass",
        )
        return result

    def iterate(self, inp: SweepInputs, ledger: Ledger) -> Iteration:
        it = Iteration()
        it.add(ledger.call(f"record seed={inp.seed}", self._record, inp))
        it.add(ledger.call(f"sweep seed={inp.seed}", self._sweep, inp))
        return it

    def describe(self, inputs: dict) -> list[str]:
        return [f"sweep cells per iteration: {SWEEP_CELLS}"]


def median(values) -> float:
    return float(statistics.median(values))


def make_workloads(work_dir: Path) -> dict:
    return {
        w.name: w
        for w in (
            PairWorkload("policy-bound", 4096, 64, depth=0, n_sub_seeds=1,
                         n_timed=1, rel_err_ceiling=2e-3),
            PairWorkload("backbone-bound", 1024, 64, depth=2, n_sub_seeds=17,
                         n_timed=11, rel_err_ceiling=2e-3),
            SweepWorkload("trace-sweep", work_dir, rel_err_ceiling=0.1),
        )
    }
