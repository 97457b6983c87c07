"""The denoising loop with caching: FULL/CACHE decisions, history, records.

run() walks a descending timestep grid. At each decision point
skipper.should_full picks, from plain values the loop carries (the streak
length and the scores accumulated over it), FULL (call the backbone, push
the output into the history, hand it to predictor.refresh once three
outputs exist, which returns the regrouped tokens and the history the
forecast reads, and reset the streak) or CACHE (forecast the output from
that history, extend the streak, and add skipper.cache_score to the
streak's total where something reads it).
Either way the emitted output advances the latent through the scheduler.
oracle_run() is the no-cache reference: run() with a zero drift budget,
which makes every step FULL by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Protocol, Sequence

import numpy as np

from . import kernels
from .core import Timestep, TokenMatrix, axpy_rows
from .curvature import HISTORY_DEPTH, FullHistory, GroupAssignment, TokenGroup, push_full
from .errors import OrderingError, ParameterError
from .predictor import PredictorConfig, PredictorKind, predict, refresh
from .skipper import SkipConfig, SkipKind, cache_score, should_full


class Backbone(Protocol):
    """One denoising-network evaluation: latent + timestep -> token outputs.

    evaluate hands over a frozen matrix that the backbone never writes again,
    so the loop may hold it to the end of the run: a fresh array through
    TokenMatrix.adopt, or a trace block widened for the call (TraceOutputs).
    The backbone may keep z."""

    def evaluate(self, z: TokenMatrix, t: Timestep) -> TokenMatrix: ...


def uniform_grid(steps: int, t_max: float | None = None) -> tuple[Timestep, ...]:
    """Descending grid of steps+1 nodes; default integer values steps..0.
    Only EulerScheduler checks that the nodes strictly decrease."""
    if steps < 0:
        raise ParameterError(f"steps must be >= 0, got {steps}")
    if t_max is None:
        t_max = float(steps)
    if not math.isfinite(t_max):
        raise ParameterError(f"t_max must be finite, got {t_max}")
    values = np.linspace(t_max, 0.0, steps + 1)
    return tuple(Timestep(float(v), i) for i, v in enumerate(values))


@dataclass(frozen=True)
class EulerScheduler:
    """Explicit Euler update z' = z + (t_to - t_from) * y over a fixed grid;
    y must have z's shape. The one place a grid is checked: its values must
    strictly decrease, and run() trusts them."""

    timesteps: tuple[Timestep, ...]

    def __post_init__(self):
        for a, b in zip(self.timesteps, self.timesteps[1:]):
            if b.value >= a.value:
                raise OrderingError(
                    f"scheduler grid must be strictly decreasing: {b.value} after {a.value}"
                )

    def step(
        self, z: TokenMatrix, y: TokenMatrix, t_from: Timestep, t_to: Timestep
    ) -> TokenMatrix:
        return axpy_rows(z, y, t_to.value - t_from.value)


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


@dataclass
class RunResult:
    records: list[StepRecord]
    final_latent: TokenMatrix
    full_count: int
    cache_count: int
    surrogates: list[TokenMatrix] | None = None

    @property
    def steps(self) -> int:
        return self.full_count + self.cache_count


_TINY = 1e-30
_NO_GROUP_ERRORS = (math.nan,) * len(TokenGroup)


def _diff_norms(
    diff: np.ndarray, groups: tuple[np.ndarray, ...]
) -> tuple[float, Sequence[float]]:
    """||diff||_F and its mean row norm per group (as .mean() rounds it), from one sumsq."""
    sums = kernels.sumsq(diff)
    num = kernels.fro_norm(diff, sums)
    if not groups:
        return num, _NO_GROUP_ERRORS
    row_err = kernels.row_norms(diff, sums)
    return num, [
        float(np.add.reduce(row_err.take(rows)) / rows.size) if rows.size else math.nan
        for rows in groups
    ]


def step_errors(
    y: TokenMatrix,
    oracle_y: TokenMatrix | tuple[np.ndarray, float],
    g: GroupAssignment | None,
) -> tuple[float, float, float, float]:
    """Relative error of y against oracle_y, then the mean row error per group.

    Returns (rel, stable, linear, chaotic). rel is ||y - y_o||_F / ||y_o||_F;
    a group's error is the mean L2 norm of its rows' differences, NaN when g
    is None or the group is empty. The difference is squared once, into the
    row sums that give rel's numerator (kernels.fro_norm) and the row errors
    (kernels.row_norms). ||y_o||_F is oracle_y's kept norm, so a reference
    output scored by many runs is normed once. oracle_y may also be a float32
    trace block with the norm of its widening (TraceOutputs.references):
    the block is widened once, exactly, into the array the difference is
    taken in, so the errors have the widened matrix's bits. Where the
    difference, a norm or a group's sum passes the float range, the values
    that overflowed are taken again at an exact power-of-two scale, so an
    error is inf only if it lies past the float range itself; the others keep
    their bits.

    When y is oracle_y itself (a replayed FULL step emits the reference's own
    output), nothing is computed: every difference is 0, so rel and each
    non-empty group's error are 0.0, which is what the full computation gives.
    """
    if y is oracle_y:
        if g is None:
            return (0.0, *_NO_GROUP_ERRORS)
        return (0.0, *(0.0 if rows.size else math.nan for rows in g.members))
    groups = () if g is None else g.members
    if isinstance(oracle_y, TokenMatrix):
        oracle_y = oracle_y.data, oracle_y.fro_norm()
    ref, den = oracle_y
    with np.errstate(over="ignore"):  # what overflows is taken again below
        if ref.dtype == np.float64:
            diff = y.data - ref
        else:  # widen the block once (exactly) and subtract into it
            diff = ref.astype(np.float64)
            np.subtract(y.data, diff, out=diff)
        num, per_group = _diff_norms(diff, groups)
        rel = num / (den + _TINY)
        if math.inf in (num, den, *per_group):
            # Norms and means scale exactly with y and y_o, so take them at
            # 2**-k, k putting the largest entry of y and y_o in [0.5, 1),
            # where y - y_o cannot overflow, and scale the means back. A
            # float32 block is widened first, which ldexp would not do.
            ref = ref.astype(np.float64, copy=False)
            k = int(np.frexp(max(np.abs(y.data).max(), np.abs(ref).max()))[1])
            o_s = np.ldexp(ref, -k)
            num_s, means_s = _diff_norms(np.ldexp(y.data, -k) - o_s, groups)
            if den == math.inf:  # so ||o_s|| is about 1 or more: rel at 2**-k
                rel = num_s / kernels.fro_norm(o_s)
            elif num == math.inf:  # ||o_s|| may underflow: scale rel back
                rel = float(np.ldexp(num_s / (den + _TINY), k))
            per_group = [float(np.ldexp(s, k)) if m == math.inf else m
                         for m, s in zip(per_group, means_s)]
    return (rel, *per_group)


def run(
    backbone: Backbone,
    scheduler: EulerScheduler,
    z_init: TokenMatrix,
    predictor_cfg: PredictorConfig | None = None,
    skip_cfg: SkipConfig | None = None,
    *,
    record_outputs: bool = False,
    sink: Callable[[TokenMatrix], None] | None = None,
    oracle_outputs: Sequence | None = None,
    full_records: bool = True,
) -> RunResult:
    """Execute the cached denoising loop over the scheduler's grid.

    The grid has steps+1 nodes; decisions happen at the first `steps` nodes
    and the final node only terminates the last scheduler update. When
    oracle_outputs is given (one reference per decision step, in either form
    step_errors takes), each record carries rel/per-group errors against it.
    record_outputs keeps each step's output in surrogates; sink takes it.

    full_records=False is for a caller that reads only the FULL/CACHE counts
    and rel_err, as a sweep cell does. The per-group errors then read NaN,
    and a cached step is scored only under the kinds that accumulate (CAS
    and input-guided); under fixed-interval its record's e_t and e_acc read
    NaN.
    Every decision, k, rel_err and the final latent are the same either way,
    and FULL records read e_t = e_acc = 0.
    """
    predictor_cfg = predictor_cfg or PredictorConfig()
    skip_cfg = skip_cfg or SkipConfig()
    grid = scheduler.timesteps
    n_steps = max(len(grid) - 1, 0)
    if oracle_outputs is not None and len(oracle_outputs) != n_steps:
        raise ParameterError(
            f"oracle_outputs has {len(oracle_outputs)} entries for {n_steps} steps"
        )

    z = z_init
    history = FullHistory()
    k, e_acc, y_prev, group = 0, 0.0, None, None
    score = full_records or skip_cfg.kind is not SkipKind.FIXED_INTERVAL
    records: list[StepRecord] = []
    surrogates: list[TokenMatrix] | None = [] if record_outputs else None
    full_count = 0
    cache_count = 0

    for i in range(n_steps):
        t = grid[i]
        if should_full(skip_cfg, k, e_acc, full_count, n_max=predictor_cfg.n_max):
            y_t = y_prev = None  # a FULL step reads neither: free a forecast
            y_t = backbone.evaluate(z, t)
            full_count += 1
            history = push_full(history, t, y_t)
            if len(history) == HISTORY_DEPTH:
                history, group = refresh(history, predictor_cfg, full_count - HISTORY_DEPTH)
            k, e_acc = 0, 0.0
            decision = Decision.FULL
            e_t = 0.0
        else:
            cache_count += 1
            k += 1
            horizon = t.value - history.t
            y_t = predict(history, group, k, horizon, predictor_cfg)
            if score:
                dt = grid[i + 1].value - t.value
                e_t = cache_score(skip_cfg.kind, group, y_t, y_prev, z, dt)
                e_acc += e_t
            else:
                e_t = e_acc = math.nan
            decision = Decision.CACHE

        errors = (math.nan,) * 4  # rel, stable, linear, chaotic
        if oracle_outputs is not None:
            errors = step_errors(y_t, oracle_outputs[i], group if full_records else None)
        records.append(StepRecord(i, t.value, decision, k, e_t, e_acc, *errors))
        if surrogates is not None:
            surrogates.append(y_t)
        if sink is not None:
            sink(y_t)

        y_prev = y_t
        z = scheduler.step(z, y_t, t, grid[i + 1])

    return RunResult(
        records=records,
        final_latent=z,
        full_count=full_count,
        cache_count=cache_count,
        surrogates=surrogates,
    )


def oracle_run(
    backbone: Backbone,
    scheduler: EulerScheduler,
    z_init: TokenMatrix,
    *,
    record_outputs: bool = True,
    sink: Callable[[TokenMatrix], None] | None = None,
) -> RunResult:
    """No-cache reference: every step FULL. Outputs go as in run().

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
        sink=sink,
    )
