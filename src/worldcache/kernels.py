"""Numeric kernels for the rowwise policy math, in numpy.

Row norms, curvature, the prediction blend and the drift score run on every
step. Row sums of squares come from einsum and the drift score adds its rows
strictly left to right, so a run is bit-reproducible. curvature_rows is
scale-safe: a row whose sum of squares leaves the normal float range is
rescaled by an exact power of two first; all other rows are computed as is.
"""

import math

import numpy as np

__all__ = ["BACKEND", "row_norms", "curvature_rows", "blend_rows", "drift_mean"]

BACKEND = "numpy"  # recorded in manifests and benchmark environments

# Prediction blend modes.
MODE_BY_LABEL = 0   # heterogeneous: per-row label picks the rule
MODE_LINEAR = 2     # one rule for all rows: y* + horizon * v_latest
MODE_DAMPED = 3     # one rule for all rows: y* + horizon * blended velocity

LABEL_STABLE = 0
LABEL_LINEAR = 1
LABEL_CHAOTIC = 2

_TINY = np.finfo(np.float64).tiny
# Subnormals are spaced 2**-1074 apart, so an acceleration row whose entries
# all lie below 2**-1042 keeps fewer than 32 significant bits: it is rounding
# noise of the outputs it was differenced from, and counts as zero.
_NOISE_EXP = -1042


def _sumsq(a: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, a)


def row_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_sumsq(a))


def _out_of_range(sums: np.ndarray, rows: np.ndarray, eps: float) -> np.ndarray:
    """Rows whose sum of squares is inf, subnormal, or 0 from a nonzero row.

    The last kind needs every entry below 2**-537, which under eps > 0 moves
    kappa by less than 2**-537 * sqrt(d) / eps, so only eps = 0 looks for it."""
    bad = (sums == math.inf) | ((sums < _TINY) & (sums != 0.0))
    if eps == 0.0:
        zero = np.flatnonzero(sums == 0.0)
        bad[zero] = rows[zero].any(axis=1)
    return bad


def curvature_rows(v_latest, v_prev, dt, eps):
    """kappa_i = ||a_i|| / (||v_i||^2 + eps); 0/0 is 0 and x/0 is inf."""
    acc = (v_latest - v_prev) / dt
    a_sq, v_sq = _sumsq(acc), _sumsq(v_latest)
    a_norm, denom = np.sqrt(a_sq), v_sq + eps
    bad = _out_of_range(a_sq, acc, eps) | _out_of_range(v_sq, v_latest, eps)
    bad = np.flatnonzero(bad)
    with np.errstate(over="ignore"):  # past the float range, inf is the answer
        if bad.size:
            # a = 2**ka a' and v = 2**kv v', max |entry| of a', v' in [0.5, 1):
            # kappa = 2**(ka - 2 kv) ||a'|| / (||v'||^2 + eps 2**(-2 kv)). Where
            # eps 2**(-2 kv) is huge, ||v||^2 is added unscaled instead.
            ka, kv = (np.frexp(np.abs(m[bad]).max(1))[1] for m in (acc, v_latest))
            a_norm[bad] = row_norms(np.ldexp(acc[bad], -ka[:, None]))
            a_norm[bad[ka <= _NOISE_EXP]] = 0.0
            v_s = _sumsq(np.ldexp(v_latest[bad], -kv[:, None]))
            eps_s = np.ldexp(eps, -2 * kv)
            small = eps_s > 2.0**512
            denom[bad] = np.where(small, np.ldexp(v_s, 2 * kv) + eps, v_s + eps_s)
            shift = np.where(small, ka, ka - 2 * kv)
        kappa = np.empty(v_latest.shape[0])
        for i in range(v_latest.shape[0]):
            if denom[i] == 0.0:
                kappa[i] = 0.0 if a_norm[i] == 0.0 else math.inf
            else:
                kappa[i] = a_norm[i] / denom[i]
        if bad.size:
            kappa[bad] = np.ldexp(kappa[bad], shift)
    return kappa


def blend_rows(y_star, v_latest, v_prev, labels, horizon, alpha, mode):
    if mode == MODE_LINEAR:
        return y_star + horizon * v_latest
    if mode == MODE_DAMPED:
        vel = (1.0 - alpha) * v_latest + alpha * v_prev
        return y_star + horizon * vel
    out = y_star.copy()
    lin = labels == LABEL_LINEAR
    cha = labels == LABEL_CHAOTIC
    out[lin] += horizon * v_latest[lin]
    vel = (1.0 - alpha) * v_latest[cha] + alpha * v_prev[cha]
    out[cha] += horizon * vel
    return out


def drift_mean(y_t, y_prev, kappa, labels):
    """Mean of kappa_i ||y_t,i - y_prev,i|| over chaotic rows (all if none)."""
    diff_norm = np.sqrt(_sumsq(y_t - y_prev))
    sel = np.flatnonzero(labels == LABEL_CHAOTIC)
    if sel.size == 0:
        sel = np.arange(y_t.shape[0])
    total = 0.0
    for i in sel:
        total += kappa[i] * diff_norm[i]
    return total / sel.size
