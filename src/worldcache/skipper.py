"""Skip scheduling: decide FULL vs CACHE at the top of every step.

Every cached step adds a score to the streak's total e_acc (cache_score),
and FULL resets it. Both accumulating kinds go FULL once the total reaches
the one budget, eta: the adaptive policy (CAS) scores curvature-weighted
drift of the chaotic tokens (drift_score), and the input-guided baseline
scores the relative L1 change the step makes to the backbone's input
(input_score). Fixed interval counts cached steps. should_full reads only
plain values, so every policy's decision lives in this module. Every run
starts with HISTORY_DEPTH FULL steps, the outputs the curvature reads, so a
cached step always has a grouping to score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .core import TokenMatrix
from .curvature import HISTORY_DEPTH, GroupAssignment, TokenGroup
from .errors import DimensionError, DomainError, ParameterError
from .predictor import DEFAULT_N_MAX

DEFAULT_ETA = 0.2


class SkipKind(str, Enum):
    CAS = "cas"
    FIXED_INTERVAL = "fixed-interval"
    INPUT_GUIDED = "input-guided"


@dataclass(frozen=True)
class SkipConfig:
    """Skip policy parameters. Only the fields for the selected kind are read.

    eta: budget of a streak's accumulated score e_acc, read by CAS and
        input-guided (non-negative; inf disables the trigger).
    interval: cached steps between FULLs for the fixed baseline.
    enforce_streak_cap: under CAS, force FULL when a streak reaches the
        predictor's n_max (True by default; False reproduces the uncapped
        published loop). No other kind caps: fixed-interval has its interval,
        and input-guided caches while its total stays below eta.
    """

    kind: SkipKind = SkipKind.CAS
    eta: float = DEFAULT_ETA
    interval: int = 5
    enforce_streak_cap: bool = True

    def __post_init__(self):
        if math.isnan(self.eta) or self.eta < 0:
            raise ParameterError(f"eta must be >= 0 (inf allowed), got {self.eta}")
        if self.interval < 1:
            raise ParameterError(f"interval must be >= 1, got {self.interval}")


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
    chaotic = g.members[TokenGroup.CHAOTIC]
    e_t = float(kernels.drift_mean(y_t.data, y_prev.data, g.kappa, chaotic))
    if not 0.0 <= e_t < math.inf:  # NaN fails both comparisons
        raise DomainError(f"drift increment must be finite and >= 0, got {e_t}")
    return e_t


def _l1(a: np.ndarray) -> tuple[float, int]:
    """math.frexp of ||a||_1. Where the plain sum passes the float range, the
    sum is taken at 2**-e, e putting the largest entry in [0.5, 1)."""
    with np.errstate(over="ignore"):
        s = float(np.abs(a).sum())
    if s < math.inf:
        return math.frexp(s)
    e = int(np.frexp(np.abs(a).max())[1])
    m, e_s = math.frexp(float(np.abs(np.ldexp(a, -e)).sum()))
    return m, e + e_s


def input_score(z: TokenMatrix, y_t: TokenMatrix, dt: float) -> float:
    """Relative L1 change |dt| ||y_t||_1 / ||z||_1 that the Euler update
    z + dt * y_t makes to the backbone's input z.

    0 over a zero latent that does not move and inf over one that does. The
    factors are combined as mantissas and one power of two, so the score is
    inf or 0 only past the float range and never NaN, and nothing warns."""
    (md, ed), (my, ey), (mz, ez) = math.frexp(abs(dt)), _l1(y_t.data), _l1(z.data)
    if mz == 0.0:
        return math.inf if md and my else 0.0
    with np.errstate(over="ignore", under="ignore"):
        return float(np.ldexp(md * my / mz, ed + ey - ez))


def cache_score(
    kind: SkipKind, g: GroupAssignment, y_t: TokenMatrix, y_prev: TokenMatrix,
    z: TokenMatrix, dt: float,
) -> float:
    """What a cached step emitting y_t adds to e_acc: input_score under
    input-guided, else drift_score."""
    if kind is SkipKind.INPUT_GUIDED:
        return input_score(z, y_t, dt)
    return drift_score(g, y_t, y_prev)


def should_full(
    cfg: SkipConfig, k: int, e_acc: float, full_count: int, n_max: int = DEFAULT_N_MAX
) -> bool:
    """Decide FULL (True) or CACHE (False) at the top of a step.

    k counts the cached steps since the last FULL and e_acc the scores they
    accumulated (cache_score). full_count counts every FULL evaluation so
    far: the first HISTORY_DEPTH steps are FULL, the warmup that the
    curvature (and every forecast) needs.
    """
    if full_count < HISTORY_DEPTH:
        return True
    if cfg.kind is SkipKind.FIXED_INTERVAL:
        return k + 1 > cfg.interval
    capped = cfg.kind is SkipKind.CAS and cfg.enforce_streak_cap
    return e_acc >= cfg.eta or (capped and k >= n_max)
