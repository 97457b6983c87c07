"""Run comparison metrics and parameter sweeps.

compare_runs() lines a cached run up against its no-cache reference and
reduces them to the numbers reported everywhere else: per-step relative
error, final-latent relative error, per-group error, FULL ratio, and an
estimated speedup under a simple cost model (FULL costs 1, a cached step
costs c_cache of that).
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .curvature import TokenGroup
from .errors import DimensionError, ParameterError
from .pipeline import RunResult, step_errors

DEFAULT_CACHE_COST = 0.01


@dataclass(frozen=True)
class RunMetrics:
    per_step_rel_error: tuple[float, ...]
    final_latent_rel_error: float
    per_group_error: dict[TokenGroup, float]
    full_ratio: float
    est_speedup: float
    e_acc_trace: tuple[tuple[int, float], ...]
    steps: int
    full_count: int
    cache_count: int

    @property
    def mean_rel_error(self) -> float:
        if not self.per_step_rel_error:
            return math.nan
        return float(np.mean(self.per_step_rel_error))


def compare_runs(
    cached: RunResult,
    oracle: RunResult,
    c_cache: float = DEFAULT_CACHE_COST,
) -> RunMetrics:
    """Reduce a (cached, reference) run pair to scalar quality metrics.

    Both runs must have retained their per-step outputs. Per-group errors use
    the cached run's active assignment at each step; steps before the first
    mask refresh contribute nothing to them.
    """
    if cached.surrogates is None or oracle.surrogates is None:
        raise ParameterError("both runs must be executed with record_outputs=True")
    if len(cached.surrogates) != len(oracle.surrogates):
        raise DimensionError(
            f"step count mismatch: {len(cached.surrogates)} vs {len(oracle.surrogates)}"
        )
    if cached.final_latent.shape != oracle.final_latent.shape:
        raise DimensionError(
            f"latent shape mismatch: {cached.final_latent.shape} vs "
            f"{oracle.final_latent.shape}"
        )
    if c_cache < 0 or not math.isfinite(c_cache):
        raise ParameterError(f"c_cache must be finite and >= 0, got {c_cache}")

    per_step = []
    sums = {g: 0.0 for g in TokenGroup}
    counts = {g: 0 for g in TokenGroup}
    for rec, c, o in zip(cached.records, cached.surrogates, oracle.surrogates):
        rel, *group_errs = step_errors(c, o, rec.assignment)
        per_step.append(rel)
        for g, err in zip(TokenGroup, group_errs):
            if not math.isnan(err):
                sums[g] += err
                counts[g] += 1
    per_group = {
        g: (sums[g] / counts[g]) if counts[g] else math.nan for g in TokenGroup
    }
    final_rel = step_errors(cached.final_latent, oracle.final_latent, None)[0]

    steps = cached.steps
    if steps:
        full_ratio = cached.full_count / steps
        est_speedup = steps / (cached.full_count + c_cache * cached.cache_count)
    else:
        full_ratio = 1.0
        est_speedup = 1.0
    return RunMetrics(
        per_step_rel_error=tuple(per_step),
        final_latent_rel_error=final_rel,
        per_group_error=per_group,
        full_ratio=full_ratio,
        est_speedup=est_speedup,
        e_acc_trace=tuple((r.step, r.e_acc) for r in cached.records),
        steps=steps,
        full_count=cached.full_count,
        cache_count=cached.cache_count,
    )


@dataclass(frozen=True)
class SweepRow:
    index: int
    point: dict
    seed: int
    metrics: RunMetrics | None
    error: str | None = None


def sweep(
    run_fn: Callable[[Mapping, int], RunMetrics],
    grid: Mapping[str, Sequence],
    seeds: Sequence[int],
    jobs: int = 1,
) -> list[SweepRow]:
    """Evaluate run_fn over the cartesian grid x seeds.

    Rows come back in deterministic order (grid point major, seed minor,
    axes expanded in the mapping's key order). A row that raises is reported
    in-place via its error field; the sweep never aborts. With jobs > 1 the
    rows run in a process pool, so run_fn must be picklable (module-level).
    """
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    if not seeds:
        raise ParameterError("sweep needs at least one seed")
    keys = list(grid.keys())
    values = [list(grid[k]) for k in keys]
    for k, v in zip(keys, values):
        if not v:
            raise ParameterError(f"sweep axis {k!r} is empty")
    points = [dict(zip(keys, combo)) for combo in itertools.product(*values)]
    tasks = [
        (idx, point, seed)
        for idx, point in enumerate(points)
        for seed in seeds
    ]

    if jobs == 1:
        return [_run_row(run_fn, *task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_run_row, run_fn, *task) for task in tasks]
    rows = []
    for task, fut in zip(tasks, futures):
        err = fut.exception()  # only when the pool itself failed the task
        rows.append(fut.result() if err is None else _failed_row(*task, err))
    return rows


def _run_row(run_fn, idx, point, seed) -> SweepRow:
    try:
        return SweepRow(idx, point, seed, run_fn(point, seed))
    except Exception as exc:  # noqa: BLE001 - per-row isolation is the point
        return _failed_row(idx, point, seed, exc)


def _failed_row(idx, point, seed, exc: BaseException) -> SweepRow:
    return SweepRow(idx, point, seed, None, error=f"{type(exc).__name__}: {exc}")
