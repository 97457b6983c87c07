import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from worldcache import (
    DimensionError,
    DomainError,
    ParameterError,
    SkipConfig,
    SkipKind,
    TokenGroup,
    TokenMatrix,
    drift_score,
    probe_statistic,
    should_full,
)
from worldcache.curvature import GroupAssignment


def _assignment(kappa, labels):
    return GroupAssignment(
        kappa=np.asarray(kappa, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int8),
    )


C, L, S = TokenGroup.CHAOTIC, TokenGroup.LINEAR, TokenGroup.STABLE


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
        # Only CAS caps: fixed-interval keeps its interval and a guided kind
        # caches while its statistic stays below tau, whatever n_max is.
        fixed = SkipConfig(kind=SkipKind.FIXED_INTERVAL, interval=10)
        assert should_full(fixed, 6, math.nan, 3, n_max=6) is False
        for kind in (SkipKind.DIFFERENCE_GUIDED, SkipKind.NORM_GUIDED,
                     SkipKind.CURVATURE_GUIDED):
            guided = SkipConfig(kind=kind, tau=0.5)
            assert should_full(guided, 6, math.nan, 3, stat=0.1, n_max=6) is False

    def test_fixed_interval_schedule(self):
        cfg = SkipConfig(kind=SkipKind.FIXED_INTERVAL, interval=2)
        decisions = []
        k = 0
        for _ in range(9):
            # a statistic or drift total is not read by this kind
            full = should_full(cfg, k, math.nan, full_count=3, stat=0.0)
            decisions.append(full)
            k = 0 if full else k + 1
        # streaks of exactly `interval` cached steps between FULLs
        assert decisions == [False, False, True] * 3

    def test_difference_guided_compares_probe(self):
        cfg = SkipConfig(kind=SkipKind.DIFFERENCE_GUIDED, tau=0.5)
        y_prev = TokenMatrix([[0.0, 0.0]])
        hit = probe_statistic(cfg.kind, TokenMatrix([[0.0, 0.6]]), y_prev, None)
        miss = probe_statistic(cfg.kind, TokenMatrix([[0.0, 0.4]]), y_prev, None)
        assert (hit, miss) == (0.6, 0.4)
        assert should_full(cfg, 0, math.nan, 3, stat=hit) is True
        assert should_full(cfg, 0, math.nan, 3, stat=miss) is False

    def test_norm_guided_divides_by_base(self):
        cfg = SkipConfig(kind=SkipKind.NORM_GUIDED, tau=0.5)
        y_prev = TokenMatrix([[4.0, 0.0]])
        hit = probe_statistic(cfg.kind, TokenMatrix([[4.0, 3.0]]), y_prev, None)
        miss = probe_statistic(cfg.kind, TokenMatrix([[4.0, 1.0]]), y_prev, None)
        assert (hit, miss) == (0.75, 0.25)
        assert should_full(cfg, 0, math.nan, 3, stat=hit) is True
        assert should_full(cfg, 0, math.nan, 3, stat=miss) is False

    def test_norm_guided_zero_base(self):
        cfg = SkipConfig(kind=SkipKind.NORM_GUIDED, tau=0.5)
        zero = TokenMatrix([[0.0, 0.0]])
        moved = probe_statistic(cfg.kind, TokenMatrix([[1.0, 0.0]]), zero, None)
        assert moved == math.inf
        assert should_full(cfg, 0, math.nan, 3, stat=moved) is True
        assert probe_statistic(cfg.kind, zero, zero, None) == 0.0

    def test_curvature_guided_uses_mean_kappa(self):
        cfg = SkipConfig(kind=SkipKind.CURVATURE_GUIDED, tau=0.1)
        y = TokenMatrix([[1.0], [2.0]])
        hot = probe_statistic(cfg.kind, y, y, _assignment([0.1, 0.3], [L, C]))
        cold = probe_statistic(cfg.kind, y, y, _assignment([0.0, 0.1], [L, C]))
        assert (hot, cold) == (0.2, 0.05)
        assert should_full(cfg, 0, math.nan, 3, stat=hot) is True
        assert should_full(cfg, 0, math.nan, 3, stat=cold) is False

    def test_undefined_probe_statistic_forces_full(self):
        y = TokenMatrix([[1.0]])
        for kind in (
            SkipKind.DIFFERENCE_GUIDED,
            SkipKind.NORM_GUIDED,
            SkipKind.CURVATURE_GUIDED,
        ):
            # no previous output, or no grouping yet
            assert probe_statistic(kind, y, None, None) is None
            assert should_full(SkipConfig(kind=kind, tau=0.5), 0, 0.0, 3) is True

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

    def test_rejects_bad_interval_and_warmup(self):
        with pytest.raises(ParameterError):
            SkipConfig(interval=0)
        with pytest.raises(ParameterError):
            SkipConfig(warmup_fulls=0)
