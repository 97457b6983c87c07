"""Cached-step output prediction: heterogeneous per-group rules and baselines.

On a cached step the backbone is not called; the output is forecast from the
FULL history. The heterogeneous predictor applies one rule per token group:

    stable   reuse the last FULL output row
    linear   first-order extrapolation with the latest velocity
    chaotic  extrapolation with a smoothstep-damped blend of the two most
             recent velocities, leaning on the older one as the streak grows

Uniform baselines apply a single rule to every token: they are the same
blend with every token in one group (no token stable or chaotic for
uniform-linear, every token chaotic for uniform-damped), and uniform-reuse
returns the last FULL output itself. The random-grouping baseline keeps the
heterogeneous rules but permutes the labels. row_split maps a kind to its
(stable, chaotic) rows; only the chaotic ones read the older velocity.

refresh is the one mask refresh the pipeline runs at each FULL step once
HISTORY_DEPTH outputs exist: it takes the curvature, groups the tokens
(permuting them under random-grouping) and cuts the older velocity to the
chaotic rows, the one form of history predict reads through a cached streak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import kernels
from .core import NON_FINITE, TokenMatrix
from .curvature import (
    DEFAULT_EPS,
    DEFAULT_P_CHAOTIC,
    DEFAULT_P_STABLE,
    HISTORY_DEPTH,
    FullHistory,
    GroupAssignment,
    check_percentiles,
    compute_curvature,
    group_tokens,
)
from .errors import DimensionError, InsufficientHistoryError, ParameterError

DEFAULT_N_MAX = 6


class PredictorKind(str, Enum):
    CHTP = "chtp"
    UNIFORM_REUSE = "uniform-reuse"
    UNIFORM_LINEAR = "uniform-linear"
    UNIFORM_DAMPED = "uniform-damped"
    RANDOM_GROUPING = "random-grouping"


_NEEDS_GROUPS = (PredictorKind.CHTP, PredictorKind.RANDOM_GROUPING)
_NO_ROWS = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class PredictorConfig:
    """Prediction policy plus the grouping knobs consumed at mask refresh.

    p_stable / p_chaotic / eps control the curvature grouping that refresh
    recomputes at every FULL step once three outputs exist; rng_seed feeds
    the label permutation of the random-grouping baseline (required for
    that kind).
    """

    kind: PredictorKind = PredictorKind.CHTP
    n_max: int = DEFAULT_N_MAX
    rng_seed: int | None = None
    p_stable: float = DEFAULT_P_STABLE
    p_chaotic: float = DEFAULT_P_CHAOTIC
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if self.n_max < 1:
            raise ParameterError(f"n_max must be >= 1, got {self.n_max}")
        if self.rng_seed is not None and self.rng_seed < 0:
            raise ParameterError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.kind is PredictorKind.RANDOM_GROUPING and self.rng_seed is None:
            raise ParameterError("random-grouping requires rng_seed")
        if self.eps < 0 or not math.isfinite(self.eps):
            raise ParameterError(f"eps must be finite and >= 0, got {self.eps}")
        check_percentiles(self.p_stable, self.p_chaotic)


def hermite_alpha(k: int, n_max: int) -> float:
    """Smoothstep blend weight alpha_k = 3x^2 - 2x^3, x = min(k / n_max, 1).

    Monotone in k, 0 at k = 0 (the analytic anchor), exactly 0.5 at the
    half-way point, saturating at 1 for k >= n_max.
    """
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    if k < 0:
        raise ParameterError(f"k must be >= 0, got {k}")
    x = min(k / n_max, 1.0)
    return 3.0 * x * x - 2.0 * x * x * x


def row_split(
    kind: PredictorKind, g: GroupAssignment | None, n_tokens: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (stable, chaotic) rows of `kind`'s forecast over n_tokens rows:
    ascending indices of the rows it reuses and of those it takes the damped
    rule for, the only rows that read v_prev; every other row is linear.

    chtp and random-grouping read them off `g` (required, covering n_tokens);
    uniform-linear has neither, uniform-damped every row chaotic and
    uniform-reuse every row stable.
    """
    if kind in _NEEDS_GROUPS:
        if g is None:
            raise ParameterError(f"{kind.value} requires a group assignment")
        if g.n_tokens != n_tokens:
            raise DimensionError(
                f"assignment covers {g.n_tokens} tokens, history has {n_tokens}"
            )
        stable, _, chaotic = g.members
        return stable, chaotic
    if kind is PredictorKind.UNIFORM_LINEAR:
        return _NO_ROWS, _NO_ROWS
    if kind is PredictorKind.UNIFORM_DAMPED:
        return _NO_ROWS, np.arange(n_tokens)
    return np.arange(n_tokens), _NO_ROWS  # UNIFORM_REUSE


def refresh(
    h: FullHistory, cfg: PredictorConfig, refresh_index: int
) -> tuple[FullHistory, GroupAssignment]:
    """The mask refresh at a FULL step of a history HISTORY_DEPTH deep: the
    history predict reads until the next push, and the grouping.

    The tokens are grouped by the curvature of h, and under random-grouping
    their labels permuted, seeded by (cfg.rng_seed, refresh_index); the
    pipeline passes full_count - HISTORY_DEPTH, 0 at the first refresh. Until
    the next push only the damped rule reads v_prev, and only row_split's
    chaotic rows of it: the history keeps those, in order, or the array
    itself when every row is chaotic.
    """
    kappa = compute_curvature(h, cfg.eps)
    g = group_tokens(kappa, cfg.p_stable, cfg.p_chaotic)
    if cfg.kind is PredictorKind.RANDOM_GROUPING:
        g = randomize_groups(g, cfg.rng_seed, refresh_index)
    n = h.output.n_tokens
    _, chaotic = row_split(cfg.kind, g, n)
    if chaotic.size < n:
        h = replace(h, v_prev=TokenMatrix._wrap(h.v_prev.data.take(chaotic, axis=0)))
    return h, g


def predict(
    h: FullHistory,
    g: GroupAssignment | None,
    k: int,
    horizon: float,
    cfg: PredictorConfig,
) -> TokenMatrix:
    """Forecast the output at extrapolation distance `horizon` from the last
    FULL output.

    horizon is in scheduler-time units and signed: the pipeline passes
    t - t_full, which is negative on descending schedules and makes the
    linear rule exact on trajectories affine in scheduler time. The
    heterogeneous kinds apply the labels in `g` as given. h holds
    HISTORY_DEPTH outputs (fewer raise InsufficientHistoryError), with v_prev
    cut as refresh cuts it: exactly row_split's chaotic rows, in order. Any
    other row count raises DimensionError; uniform-reuse reads neither
    velocity. A forecast past the float range raises ParameterError.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1 on cached steps, got {k}")
    if not math.isfinite(horizon):
        raise ParameterError(f"horizon must be finite, got {horizon}")
    if len(h) < HISTORY_DEPTH:
        raise InsufficientHistoryError(
            f"{cfg.kind.value} needs {HISTORY_DEPTH} FULL outputs, have {len(h)}"
        )
    y_star = h.output

    if cfg.kind is PredictorKind.UNIFORM_REUSE:
        return y_star

    stable, chaotic = row_split(cfg.kind, g, y_star.n_tokens)
    v_prev = h.v_prev.data
    if len(v_prev) != chaotic.size:
        raise DimensionError(
            f"v_prev has {len(v_prev)} rows, for {chaotic.size} chaotic tokens"
        )
    alpha = hermite_alpha(k, cfg.n_max)
    try:  # the blend watches the FPU flags itself
        out = kernels.blend_rows(
            y_star.data, h.v_latest.data, v_prev, stable, chaotic, float(horizon), alpha
        )
    except FloatingPointError:
        raise ParameterError(NON_FINITE) from None
    return TokenMatrix._wrap(out)


def randomize_groups(
    g: GroupAssignment, seed: int, refresh_index: int
) -> GroupAssignment:
    """Permute labels uniformly at random while preserving group sizes.

    Deterministic in (seed, refresh_index): refresh calls this once per mask
    refresh so a whole cached streak shares one permutation, matching the
    refresh cadence of the real grouping.
    """
    rng = np.random.default_rng((int(seed), int(refresh_index)))
    labels = g.labels[rng.permutation(g.n_tokens)]
    labels.setflags(write=False)
    return GroupAssignment(kappa=g.kappa, labels=labels)
