"""Numeric kernels for the rowwise policy math, in numpy.

The curvature runs at each mask refresh, the prediction blend and the drift
score on cached steps, and row norms wherever groups are scored. The blend
takes one (stable, chaotic) row split; the uniform baselines are that split
with every token in one group. The blend and the drift score build each
output-sized array once, in place where they can. Every norm squares its input
once, by einsum into row sums (sumsq); a Frobenius norm adds those pairwise
(np.add.reduce), and the drift score adds its rows strictly left to right, so
a run is bit-reproducible. row_norms, fro_norm and curvature_rows are
scale-safe: a sum of squares past the normal range is redone at a power of 2.
"""

import math

import numpy as np

__all__ = [
    "BACKEND", "sumsq", "row_norms", "fro_norm", "curvature_rows", "blend_rows", "drift_mean",
]

BACKEND = "numpy"  # recorded in manifests and benchmark environments

_TINY = np.finfo(np.float64).tiny
# Subnormals are spaced 2**-1074 apart, so an acceleration row whose entries
# all lie below 2**-1042 keeps fewer than 32 significant bits: it is rounding
# noise of the outputs it was differenced from, and counts as zero.
_NOISE_EXP = -1042


def sumsq(a: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, a)


def _off_normal(sums):
    """Sums of squares that are inf or subnormal: their square root is wrong or
    has lost precision, so the row must be rescaled first."""
    return (sums == math.inf) | ((sums < _TINY) & (sums != 0.0))


def row_norms(a: np.ndarray, sums: np.ndarray | None = None) -> np.ndarray:
    """Row L2 norms, the roots of the row sums `sums` (sumsq(a) if None). Rows
    whose squares all underflow to 0 (every entry below 2**-537) read 0."""
    sums = sumsq(a) if sums is None else sums
    norms = np.sqrt(sums)
    bad = np.flatnonzero(_off_normal(sums))
    if bad.size:  # ||a|| = 2**k ||2**-k a||, k putting max |entry| in [0.5, 1)
        k = np.frexp(np.abs(a[bad]).max(1))[1]
        with np.errstate(over="ignore"):  # a norm past the float range is inf
            norms[bad] = np.ldexp(np.sqrt(sumsq(np.ldexp(a[bad], -k[:, None]))), k)
    return norms


def fro_norm(a: np.ndarray, sums: np.ndarray | None = None) -> float:
    """Frobenius norm, the root of the pairwise sum of the row sums (sumsq(a)
    unless given: a caller that gives them ignores overflow, as step_errors does)."""
    if sums is None:
        with np.errstate(over="ignore"):  # a norm past the float range is inf
            return _fro(a, sumsq(a))
    return _fro(a, sums)


def _fro(a, sums):
    sq = float(np.add.reduce(sums))
    if sq == math.inf or 0.0 < sq < _TINY:  # ||a|| = 2**k ||2**-k a||, as in row_norms
        k = int(np.frexp(np.abs(a).max())[1])
        return float(np.ldexp(math.sqrt(np.add.reduce(sumsq(np.ldexp(a, -k)))), k))
    return math.sqrt(sq)


def _out_of_range(sums: np.ndarray, rows: np.ndarray, eps: float) -> np.ndarray:
    """Rows whose sum of squares is inf, subnormal, or 0 from a nonzero row.

    The last kind needs every entry below 2**-537, which under eps > 0 moves
    kappa by less than 2**-537 * sqrt(d) / eps, so only eps = 0 looks for it."""
    bad = _off_normal(sums)
    if eps == 0.0:
        zero = np.flatnonzero(sums == 0.0)
        bad[zero] = rows[zero].any(axis=1)
    return bad


def curvature_rows(v_latest, v_prev, dt, eps):
    """kappa_i = ||a_i|| / (||v_i||^2 + eps); 0/0 is 0 and x/0 is inf."""
    acc = np.subtract(v_latest, v_prev)
    acc /= dt
    a_sq, v_sq = sumsq(acc), sumsq(v_latest)
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
            v_s = sumsq(np.ldexp(v_latest[bad], -kv[:, None]))
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


def blend_rows(y_star, v_latest, v_prev, stable, chaotic, horizon, alpha):
    """Forecast rows from the last FULL output: the rows listed in `stable`
    (ascending indices) are reused, those in `chaotic` take the damped rule
    and the rest the linear one. v_prev holds the older velocity of the
    chaotic rows only, one row per entry of `chaotic` and in its order. A
    uniform baseline is one split: no rows for linear everywhere, every row
    chaotic for damped everywhere, where the damped rows are the forecast
    itself and nothing is gathered or scattered.

    The blend runs under the FPU's overflow and invalid flags, which its
    finite operands set only past the float range; the result is scanned only
    when one fires. A forecast row past the range raises FloatingPointError,
    and nothing is warned about. While any row is linear, the stable and
    chaotic rows take the linear rule first and are then overwritten, so an
    overflow there is discarded."""
    fired = []
    with np.errstate(over="call", invalid="call", call=lambda err, flag: fired.append(err)):
        if chaotic.size == len(y_star):  # every row damped, in order
            out = np.multiply(1.0 - alpha, v_latest)
            out += alpha * v_prev
            out *= horizon
            out += y_star
        else:
            out = np.empty_like(y_star)
            if stable.size + chaotic.size < len(out):
                np.multiply(horizon, v_latest, out=out)
                out += y_star
            out[stable] = y_star.take(stable, axis=0)
            vel = v_latest.take(chaotic, axis=0)
            vel *= 1.0 - alpha
            scratch = np.multiply(alpha, v_prev)
            vel += scratch
            vel *= horizon
            # the rows were checked by the take above; "raise" would buffer
            vel += y_star.take(chaotic, axis=0, out=scratch, mode="clip")
            out[chaotic] = vel
    if fired and not np.isfinite(out).all():
        raise FloatingPointError(f"{fired[0]} in a forecast row")
    return out


def drift_mean(y_t, y_prev, kappa, chaotic):
    """Mean of kappa_i ||y_t,i - y_prev,i|| over the rows listed in `chaotic`
    (ascending indices), or over all rows if it is empty. Only those rows'
    norms are computed, from one array of their differences. A non-finite
    mean (an inf kappa, or a difference past the float range) is returned
    without a warning, for the caller to reject."""
    with np.errstate(over="ignore", invalid="ignore"):
        if chaotic.size:
            diff = y_t.take(chaotic, axis=0)
            diff -= y_prev.take(chaotic, axis=0)
            kappa = kappa.take(chaotic)
        else:
            diff = y_t - y_prev
        terms = sumsq(diff)
        np.sqrt(terms, out=terms)
        np.multiply(kappa, terms, out=terms)
        # cumsum adds strictly left to right, unlike sum's pairwise tree
        return np.cumsum(terms)[-1] / kappa.size
