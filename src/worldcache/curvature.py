"""FULL-output history, discrete curvature, and percentile token grouping.

The policy watches the last three recomputed (FULL) outputs. Finite
differences over their true timestep gaps give per-token velocity and
acceleration; curvature kappa_i = ||a_i|| / (||v_i||^2 + eps) ranks tokens by
how badly a straight-line forecast will do, and rank-based selection with
exact counts splits them into stable / linear / chaotic groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import kernels
from .core import Timestep, TokenMatrix
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
class HistoryEntry:
    timestep: Timestep
    output: TokenMatrix


@dataclass(frozen=True)
class FullHistory:
    """Ring buffer of the <= 3 most recent FULL outputs, newest first.

    v_latest is the finite-difference velocity over the newest interval,
    v_prev over the one before it. Velocities divide by the true timestep
    difference, which is negative on a descending schedule; callers that
    extrapolate forward multiply by the matching signed horizon.
    """

    entries: tuple[HistoryEntry, ...] = ()
    v_latest: TokenMatrix | None = None
    v_prev: TokenMatrix | None = None

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def latest(self) -> HistoryEntry:
        if not self.entries:
            raise InsufficientHistoryError("history is empty")
        return self.entries[0]

    @staticmethod
    def empty() -> "FullHistory":
        return FullHistory()


def push_full(h: FullHistory, t: Timestep, y: TokenMatrix) -> FullHistory:
    """Insert a freshly recomputed output, evicting the oldest beyond depth 3.

    Timesteps must be strictly decreasing across pushes; output shape must
    match the existing entries.
    """
    if h.entries:
        newest = h.entries[0]
        if t.value >= newest.timestep.value:
            raise OrderingError(
                "timesteps must be strictly decreasing: "
                f"got {t.value} after {newest.timestep.value}"
            )
        if y.shape != newest.output.shape:
            raise DimensionError(
                f"output shape {y.shape} does not match history {newest.output.shape}"
            )
    entries = (HistoryEntry(t, y),) + h.entries[: HISTORY_DEPTH - 1]

    v_latest = h.v_latest
    v_prev = h.v_prev
    if len(entries) >= 2:
        v_prev = v_latest if len(h.entries) >= 2 else None
        e0, e1 = entries[0], entries[1]
        dt = e0.timestep.value - e1.timestep.value
        v_latest = TokenMatrix((e0.output.data - e1.output.data) / dt)
    return FullHistory(entries=entries, v_latest=v_latest, v_prev=v_prev)


def compute_curvature(h: FullHistory, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Per-token curvature from the three most recent FULL outputs.

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
    dt = h.entries[0].timestep.value - h.entries[1].timestep.value
    return kernels.curvature_rows(h.v_latest.data, h.v_prev.data, dt, eps)


@dataclass(frozen=True)
class GroupAssignment:
    """Frozen token grouping produced at a mask refresh."""

    kappa: np.ndarray
    labels: np.ndarray  # int8: TokenGroup values, one per token
    source_timestep: Timestep | None = None

    @property
    def n_tokens(self) -> int:
        return self.labels.shape[0]

    def indices(self, group: TokenGroup) -> np.ndarray:
        return np.flatnonzero(self.labels == int(group))

    def counts(self) -> dict[TokenGroup, int]:
        return {g: int((self.labels == int(g)).sum()) for g in TokenGroup}

    def mean_kappa(self) -> float:
        return float(np.mean(self.kappa)) if self.kappa.size else 0.0


def _snap_integer(v: float, rel: float = 1e-9) -> float:
    r = round(v)
    return float(r) if abs(v - r) <= rel * max(1.0, abs(v)) else v


def group_tokens(
    kappa: np.ndarray,
    p_stable: float = DEFAULT_P_STABLE,
    p_chaotic: float = DEFAULT_P_CHAOTIC,
    source_timestep: Timestep | None = None,
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
    if not (0.0 <= p_stable <= 1.0) or not (0.0 <= p_chaotic <= 1.0):
        raise ParameterError(
            f"percentiles must lie in [0, 1], got p_stable={p_stable}, p_chaotic={p_chaotic}"
        )
    if p_stable > p_chaotic:
        raise ParameterError(
            f"p_stable must not exceed p_chaotic, got {p_stable} > {p_chaotic}"
        )
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
    return GroupAssignment(kappa=kappa, labels=labels, source_timestep=source_timestep)
