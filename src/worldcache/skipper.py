"""Skip scheduling: decide FULL vs CACHE at the top of every step.

The adaptive policy (CAS) scores each cached step by curvature-weighted
drift of the chaotic tokens (drift_score); the loop adds the scores along the
streak, and should_full forces a FULL recomputation once the total reaches
eta. The baselines share should_full: fixed interval counts cached steps, and
the difference / norm / curvature probes compare the one statistic
probe_statistic takes after each step with tau. should_full reads only plain
values, so every policy's decision lives in this module.
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
    enforce_streak_cap: under CAS, force FULL when a streak reaches the
        predictor's n_max (True by default; False reproduces the uncapped
        published loop). No other kind caps: fixed-interval has its interval,
        and a guided kind caches while its statistic stays below tau.
        Curvature-guided's (the grouping's mean kappa) changes only at a
        FULL step, so once it caches it caches to the end of the run.
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


def drift_score(g: GroupAssignment, y_t: TokenMatrix, y_prev: TokenMatrix) -> float:
    """Curvature-weighted mean drift of the chaotic tokens.

    e_i = kappa_i * ||y_t,i - y_prev,i||_2 averaged over the chaotic group;
    when the assignment has no chaotic tokens the mean runs over all tokens.
    Summation order is fixed left-to-right for reproducibility. A score
    that is not finite and >= 0 (an inf kappa, which eps = 0 allows, times
    a nonzero or a zero displacement) raises DomainError.
    """
    if y_t.shape != y_prev.shape:
        raise DimensionError(f"shape mismatch: {y_t.shape} vs {y_prev.shape}")
    if g.n_tokens != y_t.n_tokens:
        raise DimensionError(
            f"assignment covers {g.n_tokens} tokens, outputs have {y_t.n_tokens}"
        )
    chaotic = g.indices(TokenGroup.CHAOTIC)
    e_t = float(kernels.drift_mean(y_t.data, y_prev.data, g.kappa, chaotic))
    if not 0.0 <= e_t < math.inf:  # NaN fails both comparisons
        raise DomainError(f"drift increment must be finite and >= 0, got {e_t}")
    return e_t


def probe_statistic(
    kind: SkipKind, y_t: TokenMatrix, y_prev: TokenMatrix | None, g: GroupAssignment | None
) -> float | None:
    """The statistic a guided kind compares with tau at the next step.

    Difference-guided reads ||y_t - y_prev||_F, norm-guided divides it by
    ||y_prev||_F (inf over a zero base, 0 when both are 0) and
    curvature-guided reads the active grouping's mean kappa. None where the
    statistic is not yet defined (no previous output or no grouping), and for
    CAS and fixed-interval, which read none.
    """
    if kind is SkipKind.CAS or kind is SkipKind.FIXED_INTERVAL:
        return None
    if kind is SkipKind.CURVATURE_GUIDED:
        return None if g is None else g.mean_kappa
    if y_prev is None:
        return None
    diff_norm = kernels.fro_norm(y_t.data - y_prev.data)
    if kind is SkipKind.DIFFERENCE_GUIDED:
        return diff_norm
    base_norm = kernels.fro_norm(y_prev.data)
    if base_norm == 0.0:
        return math.inf if diff_norm > 0.0 else 0.0
    return diff_norm / base_norm


def should_full(
    cfg: SkipConfig,
    k: int,
    e_acc: float,
    full_count: int,
    stat: float | None = None,
    n_max: int = DEFAULT_N_MAX,
) -> bool:
    """Decide FULL (True) or CACHE (False) at the top of a step.

    k counts the cached steps since the last FULL and e_acc the drift they
    accumulated. full_count counts every FULL evaluation so far, which warmup
    compares against (the history's depth, len(h), saturates at three).
    stat is probe_statistic's value after the previous step, read only by
    the guided kinds; None (not yet defined) forces FULL.
    """
    if full_count < cfg.warmup_fulls:
        return True
    if cfg.kind is SkipKind.CAS:
        return e_acc >= cfg.eta or (cfg.enforce_streak_cap and k >= n_max)
    if cfg.kind is SkipKind.FIXED_INTERVAL:
        return k + 1 > cfg.interval
    return stat is None or stat >= cfg.tau
