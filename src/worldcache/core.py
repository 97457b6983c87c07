"""Core value types: token matrices, timesteps, modality labels.

A TokenMatrix is the unit of data everywhere in the package: one float64 row
per token. Data is checked for finiteness where it enters (backbone outputs,
trace reads, initial latents). The values the loop computes from it are not
scanned on every step. Euler updates and velocities are computed under the
FPU's overflow and invalid flags (`finite_math`), which finite operands can
only set when a value passes the float range. A forecast watches the same
two flags itself (`kernels.blend_rows`) and scans its result only when one
fires, and `predict` raises ParameterError for a row past the range. So
downstream math (which divides by norms) never has to re-check.
"""

from __future__ import annotations

import math
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


NON_FINITE = "token matrix contains non-finite values"


class finite_math(np.errstate):
    """Numpy math on finite operands, under the FPU's overflow and invalid
    flags instead of a finiteness scan of its result: `with finite_math():`.

    A sum, difference or product of finite values, or their quotient by a
    nonzero finite value, can only come out inf or NaN by setting one of those
    flags, so a result made in the block is finite unless ParameterError is
    raised. Non-finite scalars are not caught: inf times a finite array sets
    no flag, so callers check their scalars themselves.
    """

    __slots__ = ()

    def __init__(self):
        super().__init__(over="raise", invalid="raise")

    def __exit__(self, exc_type, exc, tb):
        super().__exit__(exc_type, exc, tb)
        if exc_type is FloatingPointError:
            raise ParameterError(NON_FINITE) from None


class TokenMatrix:
    """Immutable N x d float64 matrix of per-token feature rows.

    Data is checked where it enters the package: it must be 2-D and finite.
    `TokenMatrix(data)` checks a C-contiguous float64 copy of data, and
    `TokenMatrix.adopt(arr)` arr itself, just made by its producer (a
    backbone). Arrays computed from checked data (Euler updates, forecasts,
    velocities, trace blocks) are wrapped by `_wrap`, unscanned and uncopied.
    Every array is frozen. Its Frobenius norm is taken on first read and kept
    for the matrix's lifetime, so a reference run's outputs, which every cell
    of a sweep is scored against, are normed once.
    """

    __slots__ = ("_data", "_fro")

    def __init__(self, data):
        self._take(np.array(data, dtype=np.float64, order="C", copy=True))

    @classmethod
    def adopt(cls, arr: np.ndarray) -> TokenMatrix:
        """arr itself, checked as TokenMatrix(arr) would be and frozen: no copy."""
        if arr.dtype != np.float64 or not arr.flags.c_contiguous:
            raise ParameterError(f"adopt needs a C-contiguous float64 array, got {arr.dtype}")
        return cls.__new__(cls)._take(arr)

    def _take(self, arr: np.ndarray) -> TokenMatrix:
        if arr.ndim != 2:
            raise DimensionError(
                f"token matrix must be 2-D (n_tokens x dims), got shape {arr.shape}"
            )
        if arr.size and not np.isfinite(arr).all():
            raise ParameterError(NON_FINITE)
        arr.setflags(write=False)
        self._data, self._fro = arr, None
        return self

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> TokenMatrix:
        """A TokenMatrix around a 2-D float64 C-contiguous array that the
        package has just made, finite by construction (see `finite_math`) and
        written by nothing else: frozen, but neither copied nor scanned."""
        arr.setflags(write=False)
        m = cls.__new__(cls)
        m._data, m._fro = arr, None
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

    def __float__(self) -> float:
        return self.value


def axpy_rows(a: TokenMatrix, b: TokenMatrix, s: float) -> TokenMatrix:
    """Rowwise a + s * b. Shapes must match exactly; an update past the float
    range or a non-finite coefficient s raises ParameterError."""
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.data.size and not math.isfinite(s):  # inf * b sets no flag
        raise ParameterError(NON_FINITE)
    with finite_math():
        out = s * b.data
        out += a.data
    return TokenMatrix._wrap(out)
