"""Core value types: token matrices, timesteps, modality labels.

A TokenMatrix is the unit of data everywhere in the package: one float64 row
per token. Every TokenMatrix is checked for finiteness once, when it is made,
so downstream math (which divides by norms) never has to re-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import kernels
from .errors import DimensionError, ParameterError


class Modality(IntEnum):
    """Optional per-token modality labels (serialized as single bytes)."""

    RGB = 0
    DEPTH = 1
    OTHER = 2


def _frozen(arr: np.ndarray) -> np.ndarray:
    if arr.ndim != 2:
        raise DimensionError(
            f"token matrix must be 2-D (n_tokens x dims), got shape {arr.shape}"
        )
    if arr.size and not np.isfinite(arr).all():
        raise ParameterError("token matrix contains non-finite values")
    arr.setflags(write=False)
    return arr


class TokenMatrix:
    """Immutable N x d float64 matrix of per-token feature rows.

    Data is copied where it enters the package: `TokenMatrix(data)` copies it
    to a C-contiguous float64 array. Arrays the loop allocates itself (Euler
    updates, forecasts, history velocities) are wrapped without a copy. Either
    way the array is checked and frozen: it must be 2-D and all values must be
    finite; NaN/Inf are rejected at construction. Its Frobenius norm is taken
    on first read and kept for the matrix's lifetime, so the outputs of a
    reference run, which every cell of a sweep is scored against, are normed
    once.
    """

    __slots__ = ("_data", "_fro")

    def __init__(self, data):
        self._data = _frozen(np.array(data, dtype=np.float64, order="C", copy=True))
        self._fro = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> TokenMatrix:
        """A TokenMatrix around a float64 C-contiguous array that the package
        has just allocated and nothing else references: checked and frozen
        like the constructor's, but not copied."""
        m = cls.__new__(cls)
        m._data = _frozen(arr)
        m._fro = None
        return m

    @property
    def data(self) -> np.ndarray:
        """Read-only float64 view of the underlying array."""
        return self._data

    def fro_norm(self) -> float:
        """kernels.fro_norm of the data (inf past the float range)."""
        if self._fro is None:
            self._fro = kernels.fro_norm(self._data)
        return self._fro

    @property
    def n_tokens(self) -> int:
        return self._data.shape[0]

    @property
    def dims(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, TokenMatrix):
            return NotImplemented
        return self._data.shape == other._data.shape and bool(
            np.array_equal(self._data, other._data)
        )

    def __hash__(self):
        raise TypeError("TokenMatrix is not hashable")

    def __repr__(self) -> str:
        return f"TokenMatrix(n_tokens={self.n_tokens}, dims={self.dims})"


@dataclass(frozen=True)
class Timestep:
    """One node of the denoising schedule: scheduler value plus loop index."""

    value: float
    index: int

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ParameterError(f"timestep value must be finite, got {self.value!r}")
        if self.index < 0:
            raise ParameterError(f"timestep index must be >= 0, got {self.index}")


def axpy_rows(a: TokenMatrix, b: TokenMatrix, s: float) -> TokenMatrix:
    """Rowwise a + s * b. Shapes must match exactly; an update past the float
    range raises ParameterError."""
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):  # an inf result is rejected by _wrap
        out = s * b.data
        out += a.data
    return TokenMatrix._wrap(out)
