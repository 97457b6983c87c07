"""Core value types: token matrices, timesteps, modality labels.

A TokenMatrix is the unit of data everywhere in the package: one float64 row
per token. Construction validates finiteness once so downstream math (which
divides by norms) never has to re-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import DimensionError, ParameterError


class Modality(IntEnum):
    """Optional per-token modality labels (serialized as single bytes)."""

    RGB = 0
    DEPTH = 1
    OTHER = 2


class TokenMatrix:
    """Immutable N x d float64 matrix of per-token feature rows.

    Input data is copied to a C-contiguous float64 array and frozen. All
    values must be finite; NaN/Inf are rejected at construction.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise DimensionError(
                f"token matrix must be 2-D (n_tokens x dims), got shape {arr.shape}"
            )
        if arr.size and not np.isfinite(arr).all():
            raise ParameterError("token matrix contains non-finite values")
        arr.setflags(write=False)
        self._data = arr

    @property
    def data(self) -> np.ndarray:
        """Read-only float64 view of the underlying array."""
        return self._data

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
    """Rowwise a + s * b. Shapes must match exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return TokenMatrix(a.data + s * b.data)
