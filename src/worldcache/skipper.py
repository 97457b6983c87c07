"""Skip scheduling: decide FULL vs CACHE at the top of every step.

The adaptive policy scores each cached step by curvature-weighted drift of
the chaotic tokens, accumulates the score along the streak, and forces a FULL
recomputation once the running total crosses eta. Baseline policies (fixed
interval, difference / norm / curvature probes) share the same decision
surface so runs are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import kernels
from .core import TokenMatrix
from .curvature import GroupAssignment, TokenGroup
from .errors import DimensionError, DomainError, ParameterError
from .predictor import DEFAULT_N_MAX

DEFAULT_ETA = 0.2
DEFAULT_WARMUP_FULLS = 3


class SkipKind(str, Enum):
    CAS = "cas"
    FIXED_INTERVAL = "fixed-interval"
    DIFFERENCE_GUIDED = "difference-guided"
    NORM_GUIDED = "norm-guided"
    CURVATURE_GUIDED = "curvature-guided"


@dataclass(frozen=True)
class SkipConfig:
    """Skip policy parameters. Only the fields for the selected kind are read.

    eta: drift budget per streak (non-negative; inf disables the trigger).
    interval: cached steps between FULLs for the fixed baseline.
    tau: threshold for the probe-guided baselines.
    enforce_streak_cap: force FULL when a streak reaches the predictor's
        n_max (True by default; False reproduces the uncapped published loop).
    warmup_fulls: initial FULL steps before any caching is considered.
    """

    kind: SkipKind = SkipKind.CAS
    eta: float = DEFAULT_ETA
    interval: int = 5
    tau: float = 0.1
    enforce_streak_cap: bool = True
    warmup_fulls: int = DEFAULT_WARMUP_FULLS

    def __post_init__(self):
        if math.isnan(self.eta) or self.eta < 0:
            raise ParameterError(f"eta must be >= 0 (inf allowed), got {self.eta}")
        if self.interval < 1:
            raise ParameterError(f"interval must be >= 1, got {self.interval}")
        if not math.isfinite(self.tau) or self.tau < 0:
            raise ParameterError(f"tau must be finite and >= 0, got {self.tau}")
        if self.warmup_fulls < 1:
            raise ParameterError(
                f"warmup_fulls must be >= 1, got {self.warmup_fulls}"
            )


@dataclass(frozen=True)
class CacheState:
    """Policy state at the top of a step, as should_full reads it.

    run() keeps the four values in locals and builds one CacheState per step
    from them.

    k: cached steps taken since the last FULL.
    e_acc: drift accumulated over the current streak.
    y_prev: output emitted at the previous step (FULL or cached).
    group: active token grouping (refreshed at FULL steps).
    """

    k: int = 0
    e_acc: float = 0.0
    y_prev: TokenMatrix | None = None
    group: GroupAssignment | None = None


@dataclass(frozen=True)
class DriftProbe:
    """Statistics over recent emitted outputs, for the guided baselines.

    diff_norm: Frobenius norm of (previous output - the one before it).
    base_norm: Frobenius norm of the older of those two outputs.
    mean_kappa: mean curvature of the active assignment.
    None means the statistic is not yet defined (start of run).
    """

    diff_norm: float | None = None
    base_norm: float | None = None
    mean_kappa: float | None = None


def drift_score(g: GroupAssignment, y_t: TokenMatrix, y_prev: TokenMatrix) -> float:
    """Curvature-weighted mean drift of the chaotic tokens.

    e_i = kappa_i * ||y_t,i - y_prev,i||_2 averaged over the chaotic group;
    when the assignment has no chaotic tokens the mean runs over all tokens.
    Summation order is fixed left-to-right for reproducibility.
    """
    if y_t.shape != y_prev.shape:
        raise DimensionError(f"shape mismatch: {y_t.shape} vs {y_prev.shape}")
    if g.n_tokens != y_t.n_tokens:
        raise DimensionError(
            f"assignment covers {g.n_tokens} tokens, outputs have {y_t.n_tokens}"
        )
    chaotic = g.indices(TokenGroup.CHAOTIC)
    return float(kernels.drift_mean(y_t.data, y_prev.data, g.kappa, chaotic))


def accumulate(state: CacheState, e_t: float) -> CacheState:
    """Add one step's drift score to the streak accumulator."""
    if not math.isfinite(e_t) or e_t < 0:
        raise DomainError(f"drift increment must be finite and >= 0, got {e_t}")
    return CacheState(state.k, state.e_acc + e_t, state.y_prev, state.group)


def should_full(
    state: CacheState,
    cfg: SkipConfig,
    history_len: int,
    step_index: int,
    probe: DriftProbe | None = None,
    n_max: int = DEFAULT_N_MAX,
) -> bool:
    """Decide FULL (True) or CACHE (False) at the top of a step.

    history_len counts FULL evaluations taken so far (the retained history
    saturates at three entries, so the cumulative count is what warmup must
    compare against). The accumulator is the one carried over from previous
    steps; it is not updated here.
    """
    if history_len < cfg.warmup_fulls:
        return True

    if cfg.kind is SkipKind.CAS:
        if state.e_acc >= cfg.eta:
            return True
        return bool(cfg.enforce_streak_cap and state.k >= n_max)

    if cfg.kind is SkipKind.FIXED_INTERVAL:
        return state.k + 1 > cfg.interval

    if probe is None:
        probe = DriftProbe()
    if cfg.kind is SkipKind.DIFFERENCE_GUIDED:
        stat = probe.diff_norm
    elif cfg.kind is SkipKind.NORM_GUIDED:
        if probe.diff_norm is None or probe.base_norm is None:
            stat = None
        elif probe.base_norm == 0.0:
            stat = math.inf if probe.diff_norm > 0.0 else 0.0
        else:
            stat = probe.diff_norm / probe.base_norm
    elif cfg.kind is SkipKind.CURVATURE_GUIDED:
        stat = probe.mean_kappa
    else:  # pragma: no cover - enum is closed
        raise ParameterError(f"unknown skip kind {cfg.kind!r}")
    if stat is None:
        return True
    return stat >= cfg.tau
