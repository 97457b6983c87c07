"""The denoising loop with caching: FULL/CACHE decisions, history, records.

run() walks a descending timestep grid. At each decision point the skip
policy picks FULL (call the backbone, push the output into the history,
refresh the token grouping once three outputs exist, reset the streak) or
CACHE (forecast the output from the history, score its drift, extend the
streak). Either way the emitted output advances the latent through the
scheduler. oracle_run() is the no-cache reference: run() with a zero drift
budget, which makes every step FULL by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .core import Timestep, TokenMatrix
from .curvature import FullHistory, GroupAssignment, TokenGroup, compute_curvature, group_tokens, push_full
from .errors import OrderingError, ParameterError
from .predictor import (
    MIN_HISTORY,
    PredictorConfig,
    PredictorKind,
    horizon_for,
    predict,
    randomize_groups,
)
from .skipper import (
    CacheState,
    DriftProbe,
    SkipConfig,
    SkipKind,
    accumulate,
    drift_score,
    should_full,
)

FULL_STEP_COST = 1.0


@runtime_checkable
class Backbone(Protocol):
    """One denoising-network evaluation: latent + timestep -> token outputs."""

    cost_full: float

    def evaluate(self, z: TokenMatrix, t: Timestep) -> TokenMatrix: ...


@runtime_checkable
class Scheduler(Protocol):
    """Latent update rule over a fixed descending timestep grid."""

    @property
    def timesteps(self) -> tuple[Timestep, ...]: ...

    def step(
        self, z: TokenMatrix, y: TokenMatrix, t_from: Timestep, t_to: Timestep
    ) -> TokenMatrix: ...


def uniform_grid(steps: int, t_max: float | None = None) -> tuple[Timestep, ...]:
    """Descending grid of steps+1 nodes; default integer values steps..0."""
    if steps < 0:
        raise ParameterError(f"steps must be >= 0, got {steps}")
    if t_max is None:
        t_max = float(steps)
    if steps == 0:
        return (Timestep(t_max, 0),)
    values = np.linspace(t_max, 0.0, steps + 1)
    return tuple(Timestep(float(v), i) for i, v in enumerate(values))


def _check_grid(timesteps: Sequence[Timestep]) -> None:
    for a, b in zip(timesteps, timesteps[1:]):
        if b.value >= a.value:
            raise OrderingError(
                f"scheduler grid must be strictly decreasing: {b.value} after {a.value}"
            )


@dataclass(frozen=True)
class EulerScheduler:
    """Explicit Euler update z' = z + (t_to - t_from) * y."""

    grid: tuple[Timestep, ...]

    def __post_init__(self):
        _check_grid(self.grid)

    @property
    def timesteps(self) -> tuple[Timestep, ...]:
        return self.grid

    def step(
        self, z: TokenMatrix, y: TokenMatrix, t_from: Timestep, t_to: Timestep
    ) -> TokenMatrix:
        return TokenMatrix(z.data + (t_to.value - t_from.value) * y.data)


class Decision(str, Enum):
    FULL = "FULL"
    CACHE = "CACHE"


@dataclass(frozen=True)
class StepRecord:
    """Per-step log line. Error fields are NaN unless an oracle was supplied."""

    step: int
    timestep: float
    decision: Decision
    k: int
    e_t: float
    e_acc: float
    rel_err: float = math.nan
    stable_err: float = math.nan
    linear_err: float = math.nan
    chaotic_err: float = math.nan
    assignment: GroupAssignment | None = None


@dataclass
class RunResult:
    records: list[StepRecord]
    final_latent: TokenMatrix
    full_count: int
    cache_count: int
    surrogates: list[TokenMatrix] | None = None
    timesteps: tuple[Timestep, ...] = field(default_factory=tuple)

    @property
    def steps(self) -> int:
        return self.full_count + self.cache_count


def _fro(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


_TINY = 1e-30


def step_errors(
    y: TokenMatrix, oracle_y: TokenMatrix, g: GroupAssignment | None
) -> tuple[float, float, float, float]:
    """Relative error of y against oracle_y, then the mean row error per group.

    Returns (rel, stable, linear, chaotic). rel is ||y - y_o||_F / ||y_o||_F;
    a group's error is the mean L2 norm of its rows' differences, NaN when g
    is None or the group is empty.
    """
    diff = y.data - oracle_y.data
    rel = _fro(diff) / (_fro(oracle_y.data) + _TINY)
    per_group = [math.nan, math.nan, math.nan]
    if g is not None:
        row_err = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        for grp in TokenGroup:
            idx = g.indices(grp)
            if idx.size:
                per_group[int(grp)] = float(row_err[idx].mean())
    return rel, per_group[0], per_group[1], per_group[2]


def run(
    backbone: Backbone,
    scheduler: Scheduler,
    z_init: TokenMatrix,
    predictor_cfg: PredictorConfig | None = None,
    skip_cfg: SkipConfig | None = None,
    *,
    record_outputs: bool = False,
    oracle_outputs: Sequence[TokenMatrix] | None = None,
) -> RunResult:
    """Execute the cached denoising loop over the scheduler's grid.

    The grid has steps+1 nodes; decisions happen at the first `steps` nodes
    and the final node only terminates the last scheduler update. When
    oracle_outputs is given (one reference output per decision step), each
    record carries rel/per-group errors against it.
    """
    predictor_cfg = predictor_cfg or PredictorConfig()
    skip_cfg = skip_cfg or SkipConfig()
    grid = tuple(scheduler.timesteps)
    _check_grid(grid)
    n_steps = max(len(grid) - 1, 0)
    if oracle_outputs is not None and len(oracle_outputs) != n_steps:
        raise ParameterError(
            f"oracle_outputs has {len(oracle_outputs)} entries for {n_steps} steps"
        )
    min_hist = MIN_HISTORY[predictor_cfg.kind]
    if skip_cfg.kind is SkipKind.CAS:
        min_hist = max(min_hist, 3)  # drift scoring needs curvature
    if skip_cfg.warmup_fulls < min_hist:
        raise ParameterError(
            f"warmup_fulls={skip_cfg.warmup_fulls} is below the {min_hist} FULL "
            f"outputs required by {predictor_cfg.kind.value}/{skip_cfg.kind.value}"
        )
    if (
        predictor_cfg.kind is PredictorKind.RANDOM_GROUPING
        and predictor_cfg.rng_seed is None
    ):
        raise ParameterError("random-grouping requires rng_seed")

    z = z_init
    history = FullHistory.empty()
    state = CacheState()
    probe = DriftProbe()
    records: list[StepRecord] = []
    surrogates: list[TokenMatrix] | None = [] if record_outputs else None
    full_count = 0
    cache_count = 0
    refresh_count = 0

    for i in range(n_steps):
        t = grid[i]
        if should_full(
            state, skip_cfg, full_count, i, probe, n_max=predictor_cfg.n_max
        ):
            y_t = backbone.evaluate(z, t)
            full_count += 1
            history = push_full(history, t, y_t)
            group = state.group
            if len(history) == 3:
                kappa = compute_curvature(history, predictor_cfg.eps)
                group = group_tokens(
                    kappa,
                    predictor_cfg.p_stable,
                    predictor_cfg.p_chaotic,
                    source_timestep=t,
                )
                if predictor_cfg.kind is PredictorKind.RANDOM_GROUPING:
                    group = randomize_groups(
                        group, predictor_cfg.rng_seed, refresh_count
                    )
                refresh_count += 1
            state = replace(state, k=0, e_acc=0.0, group=group)
            decision = Decision.FULL
            e_t = 0.0
        else:
            cache_count += 1
            state = replace(state, k=state.k + 1)
            horizon = horizon_for(
                predictor_cfg.horizon_mode, t, history.latest.timestep, state.k
            )
            y_t = predict(history, state.group, state.k, horizon, predictor_cfg)
            if state.group is not None:
                e_t = drift_score(state.group, y_t, state.y_prev)
            else:
                e_t = 0.0
            state = accumulate(state, e_t)
            decision = Decision.CACHE

        rel = st = li = ch = math.nan
        if oracle_outputs is not None:
            rel, st, li, ch = step_errors(y_t, oracle_outputs[i], state.group)
        records.append(
            StepRecord(
                step=i,
                timestep=t.value,
                decision=decision,
                k=state.k,
                e_t=e_t,
                e_acc=state.e_acc,
                rel_err=rel,
                stable_err=st,
                linear_err=li,
                chaotic_err=ch,
                assignment=state.group,
            )
        )
        if surrogates is not None:
            surrogates.append(y_t)

        # Probe statistics for the guided baselines: last emitted difference.
        if state.y_prev is not None:
            probe = DriftProbe(
                diff_norm=_fro(y_t.data - state.y_prev.data),
                base_norm=_fro(state.y_prev.data),
                mean_kappa=state.group.mean_kappa() if state.group else None,
            )
        else:
            probe = DriftProbe(
                mean_kappa=state.group.mean_kappa() if state.group else None
            )
        state = replace(state, y_prev=y_t)
        z = scheduler.step(z, y_t, t, grid[i + 1])

    return RunResult(
        records=records,
        final_latent=z,
        full_count=full_count,
        cache_count=cache_count,
        surrogates=surrogates,
        timesteps=grid,
    )


def oracle_run(
    backbone: Backbone,
    scheduler: Scheduler,
    z_init: TokenMatrix,
    *,
    record_outputs: bool = True,
    oracle_outputs: Sequence[TokenMatrix] | None = None,
) -> RunResult:
    """No-cache reference: every step FULL.

    Implemented as run() with a zero drift budget, so equality with an
    eta = 0 run is definitional.
    """
    return run(
        backbone,
        scheduler,
        z_init,
        PredictorConfig(kind=PredictorKind.UNIFORM_REUSE),
        SkipConfig(kind=SkipKind.CAS, eta=0.0),
        record_outputs=record_outputs,
        oracle_outputs=oracle_outputs,
    )
