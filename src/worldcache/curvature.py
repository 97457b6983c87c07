"""FULL-output history, discrete curvature, and percentile token grouping.

The policy watches the last three recomputed (FULL) outputs through what it
reads of them: the newest output and two finite-difference velocities over
their true timestep gaps, which give per-token velocity and acceleration.
Curvature kappa_i = ||a_i|| / (||v_i||^2 + eps) ranks tokens by how badly a
straight-line forecast will do, and rank-based selection with exact counts
splits them into stable / linear / chaotic groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from . import kernels
from .core import Timestep, TokenMatrix, finite_math
from .errors import (
    DimensionError,
    InsufficientHistoryError,
    OrderingError,
    ParameterError,
)

DEFAULT_EPS = 1e-8
DEFAULT_P_STABLE = 0.3
DEFAULT_P_CHAOTIC = 0.7

HISTORY_DEPTH = 3


class TokenGroup(IntEnum):
    STABLE = 0
    LINEAR = 1
    CHAOTIC = 2


@dataclass(frozen=True)
class FullHistory:
    """What the forecast and the curvature read of the recent FULL outputs.

    Only the newest output is kept, with its timestep value t and dt, the
    newest interval (t minus the previous FULL timestep; None until two
    outputs exist); an older output is dropped once its velocity is taken.
    v_latest is the finite-difference velocity over dt, v_prev over the
    interval before it. dt is negative on a descending schedule; callers
    that extrapolate forward multiply by the matching signed horizon.
    len(h) is the number of FULL outputs pushed, capped at 3: one for the
    newest output and one for each velocity.

    push_full gives v_prev every row. Once the curvature has read it,
    predictor.refresh keeps only the rows the forecast reads (row_split's
    chaotic rows, in order; zero rows under uniform-reuse and -linear), the
    one form predict reads, and the next push replaces it.
    compute_curvature rejects such a history.
    """

    output: TokenMatrix | None = None
    t: float | None = None
    dt: float | None = None
    v_latest: TokenMatrix | None = None
    v_prev: TokenMatrix | None = None

    def __len__(self) -> int:
        if self.output is None:
            return 0
        return 1 + (self.v_latest is not None) + (self.v_prev is not None)


def push_full(h: FullHistory, t: Timestep, y: TokenMatrix) -> FullHistory:
    """Push a freshly recomputed output: it becomes the newest, its velocity
    against the previous newest becomes v_latest, and the old v_latest moves
    to v_prev. The previous newest output is not kept.

    Timesteps must be strictly decreasing across pushes; output shape must
    match the newest output. A velocity past the float range raises
    ParameterError.
    """
    if h.output is None:
        return FullHistory(output=y, t=t.value)
    if t.value >= h.t:
        raise OrderingError(
            f"timesteps must be strictly decreasing: got {t.value} after {h.t}"
        )
    if y.shape != h.output.shape:
        raise DimensionError(
            f"output shape {y.shape} does not match history {h.output.shape}"
        )
    dt = t.value - h.t
    with finite_math():  # dt < 0 (maybe -inf), as the timesteps strictly decrease
        v = np.subtract(y.data, h.output.data)
        v /= dt
    return FullHistory(
        output=y, t=t.value, dt=dt, v_latest=TokenMatrix._wrap(v), v_prev=h.v_latest
    )


def compute_curvature(h: FullHistory, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Per-token curvature from the velocities of the three most recent FULL
    outputs.

    a_i = (v_latest,i - v_prev,i) / dt over the newest interval, and
    kappa_i = ||a_i||_2 / (||v_latest,i||_2^2 + eps). eps = 0 is allowed (the
    scale-invariance analysis evaluates it); a 0/0 row is defined as 0.

    The result is accurate at every finite scale of the outputs: a row whose
    sums of squares would underflow or overflow is rescaled by an exact power
    of two, and an acceleration row below 2**-1042 (subnormal rounding noise)
    counts as zero. With eps > 0, a row whose squares all underflow to 0
    (every entry below 2**-537) is not rescaled; that moves kappa by less than
    2**-537 * sqrt(d) / eps. kappa is inf only past the float range, or for a
    nonzero acceleration over a zero velocity at eps = 0.
    """
    if len(h) < HISTORY_DEPTH:
        raise InsufficientHistoryError(
            f"curvature needs {HISTORY_DEPTH} FULL outputs, have {len(h)}"
        )
    if eps < 0 or not math.isfinite(eps):
        raise ParameterError(f"eps must be a finite value >= 0, got {eps}")
    if h.v_prev.shape != h.v_latest.shape:
        raise DimensionError(
            f"v_prev shape {h.v_prev.shape} does not match v_latest {h.v_latest.shape}"
        )
    return kernels.curvature_rows(h.v_latest.data, h.v_prev.data, h.dt, eps)


@dataclass(frozen=True)
class GroupAssignment:
    """Frozen token grouping produced at a mask refresh."""

    kappa: np.ndarray
    labels: np.ndarray  # int8: TokenGroup values, one per token

    @property
    def n_tokens(self) -> int:
        return self.labels.shape[0]

    @cached_property
    def members(self) -> tuple[np.ndarray, ...]:
        """Read-only ascending row indices of each group, in TokenGroup order."""
        # Built on first read, so once per refresh and never in the oracle,
        # which reads no grouping; the cached steps of a streak share it.
        members = tuple(np.flatnonzero(self.labels == int(g)) for g in TokenGroup)
        for rows in members:
            rows.setflags(write=False)
        return members

    def counts(self) -> dict[TokenGroup, int]:
        return {g: self.members[g].size for g in TokenGroup}


def _snap_integer(v: float, rel: float = 1e-9) -> float:
    r = round(v)
    return float(r) if abs(v - r) <= rel * max(1.0, abs(v)) else v


def check_percentiles(p_stable: float, p_chaotic: float) -> None:
    """Raise ParameterError unless 0 <= p_stable <= p_chaotic <= 1."""
    if not (0.0 <= p_stable <= 1.0) or not (0.0 <= p_chaotic <= 1.0):
        raise ParameterError(
            f"percentiles must lie in [0, 1], got p_stable={p_stable}, p_chaotic={p_chaotic}"
        )
    if p_stable > p_chaotic:
        raise ParameterError(
            f"p_stable must not exceed p_chaotic, got {p_stable} > {p_chaotic}"
        )


def group_tokens(
    kappa: np.ndarray,
    p_stable: float = DEFAULT_P_STABLE,
    p_chaotic: float = DEFAULT_P_CHAOTIC,
) -> GroupAssignment:
    """Split tokens into stable / linear / chaotic by curvature rank.

    Exactly floor(p_stable * N) lowest-kappa tokens become stable and exactly
    ceil((1 - p_chaotic) * N) highest-kappa tokens become chaotic; everything
    between is linear. Ties are broken by ascending token index (stable sort),
    so the split is deterministic and the three groups always partition the
    token set.
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    if kappa.ndim != 1:
        raise DimensionError(f"kappa must be 1-D, got shape {kappa.shape}")
    if np.isnan(kappa).any():
        raise ParameterError("kappa contains NaN")
    check_percentiles(p_stable, p_chaotic)
    n = kappa.shape[0]
    if n == 0:
        raise DimensionError("cannot group zero tokens")
    # Percentiles arrive as decimals like 0.7 whose float products drift off
    # the intended integer by a few ulps (e.g. (1 - 0.7) * 10 = 3.0000000004);
    # snap near-integers before floor/ceil so counts follow the decimal value.
    n_stable = int(math.floor(_snap_integer(p_stable * n)))
    n_chaotic = int(math.ceil(_snap_integer((1.0 - p_chaotic) * n)))

    order = np.argsort(kappa, kind="stable")
    labels = np.full(n, int(TokenGroup.LINEAR), dtype=np.int8)
    if n_stable:
        labels[order[:n_stable]] = int(TokenGroup.STABLE)
    if n_chaotic:
        labels[order[n - n_chaotic:]] = int(TokenGroup.CHAOTIC)
    labels.setflags(write=False)
    kappa = kappa.copy()
    kappa.setflags(write=False)
    return GroupAssignment(kappa=kappa, labels=labels)
