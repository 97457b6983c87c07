"""Run comparison metrics and parameter sweeps.

compare_runs() reduces a cached run and its no-cache reference to the
numbers reported everywhere else: mean per-step relative error, final-latent
relative error, FULL ratio, and an estimated speedup under a fixed cost
model (FULL costs 1, a cached step costs CACHE_COST of that). The per-step
errors are the cached run's records, which run(oracle_outputs=...) fills
in as it goes, so neither run has to keep its outputs for it.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DimensionError, ParameterError
from .pipeline import RunResult, step_errors

CACHE_COST = 0.01


@dataclass(frozen=True)
class RunMetrics:
    mean_rel_error: float  # NaN for a run of zero steps
    final_latent_rel_error: float
    full_ratio: float
    est_speedup: float
    steps: int
    full_count: int
    cache_count: int


def compare_runs(cached: RunResult, oracle: RunResult) -> RunMetrics:
    """Reduce a (cached, reference) run pair to scalar quality metrics.

    The cached run must have been executed with the reference's outputs as
    oracle_outputs; its records then hold the per-step errors (and, unless
    it ran with full_records=False, the per-group ones, which steps.csv
    writes). Only the final latents are compared here.
    """
    if cached.steps != oracle.steps:
        raise DimensionError(f"step count mismatch: {cached.steps} vs {oracle.steps}")
    if cached.final_latent.shape != oracle.final_latent.shape:
        raise DimensionError(
            f"latent shape mismatch: {cached.final_latent.shape} vs "
            f"{oracle.final_latent.shape}"
        )

    per_step = tuple(r.rel_err for r in cached.records)
    if any(math.isnan(e) for e in per_step):
        raise ParameterError(
            "the cached run's records carry no errors: run it with oracle_outputs"
        )

    final_rel = step_errors(cached.final_latent, oracle.final_latent, None)[0]

    steps = cached.steps
    if steps:
        full_ratio = cached.full_count / steps
        est_speedup = steps / (cached.full_count + CACHE_COST * cached.cache_count)
    else:
        full_ratio = 1.0
        est_speedup = 1.0
    return RunMetrics(
        mean_rel_error=float(np.mean(per_step)) if per_step else math.nan,
        final_latent_rel_error=final_rel,
        full_ratio=full_ratio,
        est_speedup=est_speedup,
        steps=steps,
        full_count=cached.full_count,
        cache_count=cached.cache_count,
    )


@dataclass(frozen=True)
class SweepRow:
    point: dict
    seed: int
    metrics: RunMetrics | None
    error: str | None = None


def sweep(
    cells_for: Callable[[int], Callable[[Mapping], RunMetrics]],
    grid: Mapping[str, Sequence],
    seeds: Sequence[int],
    jobs: int = 1,
) -> list[SweepRow]:
    """Evaluate the cartesian grid x seeds. cells_for(seed) does the work a
    seed's cells share and returns cell(point) -> RunMetrics; it is called
    once per task of _split_tasks (a run of one seed's cells), and if it
    raises, every row of that task fails with its error. Rows come back in
    deterministic order (grid point major, seed minor, axes in the mapping's
    key order); a row that raises is reported in-place via its error field,
    and the sweep never aborts. With jobs > 1 the tasks go to a process
    pool, so cells_for must be picklable (module-level).
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
    tasks = _split_tasks(points, seeds, jobs)

    if jobs == 1:
        done = [row for task in tasks for row in _run_task(cells_for, *task)]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            futures = [pool.submit(_run_task, cells_for, *task) for task in tasks]
        done = []
        for (chunk, seed), fut in zip(tasks, futures):
            err = fut.exception()  # only when the pool itself failed the task
            done += fut.result() if err is None else [
                _failed_row(point, seed, err) for point in chunk
            ]
    n = len(points)
    return [done[s * n + p] for p in range(n) for s in range(len(seeds))]


def _split_tasks(points, seeds, jobs) -> list[tuple[list, int]]:
    """(points, seed) tasks, seed major: each seed's points cut into
    max(1, jobs // len(seeds)) contiguous chunks of near-equal size (at most
    one per point). With fewer seeds than jobs every worker still gets work,
    and at most max(jobs, len(seeds)) tasks each build a seed's workload."""
    n = len(points)
    per_seed = min(n, max(1, jobs // len(seeds)))
    cuts = [n * i // per_seed for i in range(per_seed + 1)]
    return [(points[a:b], seed) for seed in seeds for a, b in zip(cuts, cuts[1:])]


def _run_task(cells_for, points, seed) -> list[SweepRow]:
    try:
        cell = cells_for(seed)
    except Exception as exc:  # noqa: BLE001 - per-row isolation is the point
        return [_failed_row(point, seed, exc) for point in points]
    return [_run_row(cell, point, seed) for point in points]


def _run_row(cell, point, seed) -> SweepRow:
    try:
        return SweepRow(point, seed, cell(point))
    except Exception as exc:  # noqa: BLE001 - per-row isolation is the point
        return _failed_row(point, seed, exc)


def _failed_row(point, seed, exc: BaseException) -> SweepRow:
    return SweepRow(point, seed, None, error=f"{type(exc).__name__}: {exc}")
