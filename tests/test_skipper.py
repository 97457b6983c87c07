import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from worldcache import (
    DimensionError,
    DomainError,
    ParameterError,
    SkipConfig,
    SkipKind,
    TokenGroup,
    TokenMatrix,
    drift_score,
    input_score,
    should_full,
)
from worldcache.curvature import GroupAssignment
from worldcache.skipper import cache_score


def _assignment(kappa, labels):
    return GroupAssignment(
        kappa=np.asarray(kappa, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int8),
    )


C, L, S = TokenGroup.CHAOTIC, TokenGroup.LINEAR, TokenGroup.STABLE


_MANTISSA = st.floats(-1, 1, allow_subnormal=False)


def _bits(x):
    return np.float64(x).tobytes()


def _quiet(fn, *args):
    """fn(*args) with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


class TestDriftScore:
    def test_zero_displacement(self):
        g = _assignment([0.5, 0.9], [L, C])
        y = TokenMatrix([[1.0, 2.0], [3.0, 4.0]])
        assert drift_score(g, y, y) == 0.0

    def test_single_chaotic_token(self):
        # kappa = 0.5 and row displacement 2 -> 1.0
        g = _assignment([0.5], [C])
        y_prev = TokenMatrix([[0.0, 0.0]])
        y_t = TokenMatrix([[0.0, 2.0]])
        assert drift_score(g, y_t, y_prev) == 1.0

    def test_mean_over_chaotic(self):
        # per-token contributions 1.0 and 3.0 -> mean 2.0
        g = _assignment([1.0, 1.0], [C, C])
        y_prev = TokenMatrix([[0.0], [0.0]])
        y_t = TokenMatrix([[1.0], [3.0]])
        assert drift_score(g, y_t, y_prev) == 2.0

    def test_non_chaotic_rows_do_not_contribute(self):
        g = _assignment([9.0, 9.0, 1.0], [S, L, C])
        y_prev = TokenMatrix([[0.0], [0.0], [0.0]])
        y_t = TokenMatrix([[100.0], [100.0], [2.0]])
        assert drift_score(g, y_t, y_prev) == 2.0

    def test_empty_chaotic_falls_back_to_all_tokens(self):
        g = _assignment([1.0, 3.0], [S, L])
        y_prev = TokenMatrix([[0.0], [0.0]])
        y_t = TokenMatrix([[1.0], [1.0]])
        # fallback mean over all tokens: (1*1 + 3*1) / 2
        assert drift_score(g, y_t, y_prev) == 2.0

    def test_shape_mismatch(self):
        g = _assignment([1.0], [C])
        with pytest.raises(DimensionError):
            drift_score(g, TokenMatrix([[1.0]]), TokenMatrix([[1.0, 2.0]]))
        with pytest.raises(DimensionError):
            drift_score(g, TokenMatrix([[1.0], [2.0]]), TokenMatrix([[1.0], [2.0]]))

    @given(
        st.floats(0.25, 4),
        st.lists(st.floats(0, 10), min_size=1, max_size=8),
    )
    @settings(max_examples=50)
    def test_scale_invariance_of_score(self, s, kappas):
        """kappa scales as 1/s while displacements scale as s (eps = 0)."""
        n = len(kappas)
        rng = np.random.default_rng(n)
        labels = np.full(n, int(C), dtype=np.int8)
        y_prev = rng.normal(size=(n, 3))
        y_t = y_prev + rng.normal(size=(n, 3))
        base = drift_score(
            _assignment(kappas, labels), TokenMatrix(y_t), TokenMatrix(y_prev)
        )
        scaled = drift_score(
            _assignment(np.asarray(kappas) / s, labels),
            TokenMatrix(s * y_t),
            TokenMatrix(s * y_prev),
        )
        assert scaled == pytest.approx(base, rel=1e-12, abs=1e-15)

    def test_rejects_negative_and_non_finite(self):
        y_prev = TokenMatrix([[0.0, 0.0]])
        y_t = TokenMatrix([[0.0, 2.0]])
        with pytest.raises(DomainError, match="got -1.0"):
            drift_score(_assignment([-0.5], [C]), y_t, y_prev)
        # an inf kappa (eps = 0, a token whose newest velocity is 0) times a
        # nonzero displacement is inf, and times a zero one NaN; neither warns
        with pytest.raises(DomainError, match="got inf"):
            drift_score(_assignment([math.inf], [C]), y_t, y_prev)
        with pytest.raises(DomainError, match="got nan"):
            drift_score(_assignment([math.inf], [C]), y_t, y_t)


class TestInputScore:
    def test_relative_l1_change_of_the_latent(self):
        # z = [[4, 0]] moves by dt * y = -0.5 * [[2, -2]], 2 against 4
        z, y = TokenMatrix([[4.0, 0.0]]), TokenMatrix([[2.0, -2.0]])
        assert input_score(z, y, -0.5) == 0.5

    @given(
        s=st.integers(-20, 20),
        top=st.sampled_from([0, -600, 600, 1001]),
        rows=st.lists(st.tuples(_MANTISSA, _MANTISSA), min_size=1, max_size=12),
        dt=st.sampled_from([-1.0, -0.37, -2.0**-30, -1e6]),
    )
    @example(s=20, top=1001, rows=[(1.0, -1.0)] * 12, dt=-1.0)
    @example(s=20, top=1001, rows=[(0.0, 0.5)], dt=-1.0)
    @example(s=-7, top=0, rows=[(0.0, 0.0)] * 2, dt=-1.0)
    @settings(max_examples=200)
    def test_scale_invariance_of_score(self, s, top, rows, dt):
        """Scaling z and y by 2**s leaves the score's bits alone, also where
        both L1 sums pass the float range: at top = 1001 and s = 20, twelve
        entries of 2**1021 (about 4.5e307) sum past it. A zero latent reads
        0 if it does not move and inf if it does."""
        # Entries below 2**-30 of the top are cut to 0, so no scaled entry
        # is subnormal and every sum rounds alike at every scale.
        m = np.asarray(rows, dtype=np.float64)
        m[np.abs(m) < 2.0**-30] = 0.0
        z, y = np.ldexp(m[:, :1], top), np.ldexp(m[:, 1:], top)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = input_score(TokenMatrix(z), TokenMatrix(y), dt)
            scaled = input_score(
                TokenMatrix(np.ldexp(z, s)), TokenMatrix(np.ldexp(y, s)), dt
            )
        assert _bits(scaled) == _bits(base)
        if not z.any():
            assert base == (math.inf if y.any() else 0.0)
        else:
            want = abs(dt) * np.abs(m[:, 1]).sum() / np.abs(m[:, 0]).sum()
            assert base == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "y, dt, want",
        [([[0.0, 0.0]], -1.0, 0.0), ([[0.0, 3.0]], -1.0, math.inf),
         ([[0.0, 3.0]], 0.0, 0.0)],
        ids=["still", "moving", "zero-step"],
    )
    def test_a_zero_latent(self, y, dt, want):
        # the latent moves only where both dt and y are nonzero
        zero = TokenMatrix([[0.0, 0.0]])
        assert _quiet(input_score, zero, TokenMatrix(y), dt) == want

    def test_the_direction_of_time_is_ignored(self):
        z, y = TokenMatrix([[3.0, -1.0]]), TokenMatrix([[0.5, 1.5]])
        assert input_score(z, y, 0.25) == input_score(z, y, -0.25) == 0.125

    @pytest.mark.parametrize(
        "z, y, dt, want",
        [(1e-300, 1e300, 1e10, math.inf), (1e300, 1e-300, 1e-10, 0.0)],
        ids=["overflow", "underflow"],
    )
    def test_a_score_past_the_float_range(self, z, y, dt, want):
        # 1e610 and 1e-610 have no float: the score saturates without a warning
        score = _quiet(input_score, TokenMatrix([[z]]), TokenMatrix([[y]]), dt)
        assert score == want


class TestCacheScore:
    def test_input_guided_scores_the_latent(self):
        z, y = TokenMatrix([[4.0, 0.0]]), TokenMatrix([[2.0, -2.0]])
        g = _assignment([0.5, 0.5], [C, C])
        # y_prev differs from y_t, so a drift score would not be 0.5
        score = cache_score(SkipKind.INPUT_GUIDED, g, y, TokenMatrix([[0.0, 0.0]]), z, -0.5)
        assert score == input_score(z, y, -0.5) == 0.5

    @pytest.mark.parametrize("kind", [SkipKind.CAS, SkipKind.FIXED_INTERVAL])
    def test_other_kinds_score_the_drift(self, kind):
        z, y_t, y_prev = TokenMatrix([[4.0]]), TokenMatrix([[3.0]]), TokenMatrix([[1.0]])
        g = _assignment([0.5], [C])
        assert cache_score(kind, g, y_t, y_prev, z, -1.0) == drift_score(g, y_t, y_prev) == 1.0


class TestShouldFull:
    def test_warmup_forces_full(self):
        cfg = SkipConfig(eta=1e9)
        assert should_full(cfg, k=0, e_acc=0.0, full_count=2) is True

    def test_cas_threshold_crossing(self):
        cfg = SkipConfig(eta=0.2)
        assert should_full(cfg, 1, 0.25, 3) is True
        assert should_full(cfg, 1, 0.1, 3) is False

    def test_cas_threshold_is_inclusive(self):
        assert should_full(SkipConfig(eta=0.2), 1, 0.2, 3) is True

    def test_eta_zero_always_fires(self):
        assert should_full(SkipConfig(eta=0.0), 0, 0.0, 3) is True

    def test_streak_cap(self):
        cfg = SkipConfig(eta=math.inf)
        assert should_full(cfg, 6, 0.0, 3, n_max=6) is True
        assert should_full(cfg, 5, 0.0, 3, n_max=6) is False
        uncapped = SkipConfig(eta=math.inf, enforce_streak_cap=False)
        assert should_full(uncapped, 6, 0.0, 3, n_max=6) is False
        # Only CAS caps: fixed-interval keeps its interval and input-guided
        # caches while its total stays below eta, whatever n_max is.
        fixed = SkipConfig(kind=SkipKind.FIXED_INTERVAL, interval=10)
        assert should_full(fixed, 6, math.nan, 3, n_max=6) is False
        for kind in (SkipKind.INPUT_GUIDED,):
            guided = SkipConfig(kind=kind, eta=0.5)
            assert should_full(guided, 6, 0.1, 3, n_max=6) is False

    def test_fixed_interval_schedule(self):
        cfg = SkipConfig(kind=SkipKind.FIXED_INTERVAL, interval=2)
        decisions = []
        k = 0
        for _ in range(9):
            # a drift total is not read by this kind
            full = should_full(cfg, k, math.nan, full_count=3)
            decisions.append(full)
            k = 0 if full else k + 1
        # streaks of exactly `interval` cached steps between FULLs
        assert decisions == [False, False, True] * 3

    def test_input_guided_compares_the_total_with_eta(self):
        cfg = SkipConfig(kind=SkipKind.INPUT_GUIDED, eta=0.5)
        assert should_full(cfg, 1, 0.5, 3) is True  # inclusive, as under CAS
        assert should_full(cfg, 1, 0.4, 3) is False

    def test_input_guided_at_eta_zero_is_always_full(self):
        cfg = SkipConfig(kind=SkipKind.INPUT_GUIDED, eta=0.0)
        assert should_full(cfg, 0, 0.0, 3) is True

    @given(st.floats(0, 2), st.floats(0, 2), st.floats(0, 3))
    def test_lower_eta_never_flips_full_to_cache(self, eta_lo, eta_hi, e_acc):
        lo, hi = min(eta_lo, eta_hi), max(eta_lo, eta_hi)
        fired_hi = should_full(SkipConfig(eta=hi), 1, e_acc, 3)
        fired_lo = should_full(SkipConfig(eta=lo), 1, e_acc, 3)
        assert fired_lo or not fired_hi


class TestSkipConfigValidation:
    def test_rejects_negative_eta(self):
        with pytest.raises(ParameterError):
            SkipConfig(eta=-0.1)

    def test_rejects_nan_eta(self):
        with pytest.raises(ParameterError):
            SkipConfig(eta=math.nan)

    def test_inf_eta_allowed(self):
        assert SkipConfig(eta=math.inf).eta == math.inf

    def test_rejects_bad_interval(self):
        with pytest.raises(ParameterError):
            SkipConfig(interval=0)
