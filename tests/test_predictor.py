from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from worldcache import (
    DimensionError,
    FullHistory,
    InsufficientHistoryError,
    ParameterError,
    PredictorConfig,
    PredictorKind,
    Timestep,
    TokenGroup,
    TokenMatrix,
    group_tokens,
    hermite_alpha,
    predict,
    push_full,
    refresh,
)
from worldcache.curvature import GroupAssignment
from worldcache.predictor import randomize_groups

from forecasts import LABEL_CHAOTIC, LABEL_LINEAR, LABEL_STABLE, cut_history, ref_blend


def _history(ts_and_rows):
    h = FullHistory()
    for i, (t, y) in enumerate(ts_and_rows):
        h = push_full(
            h, Timestep(value=float(t), index=i), TokenMatrix(np.atleast_2d(y))
        )
    return h


def _labels(raw) -> GroupAssignment:
    labels = np.asarray(raw, dtype=np.int8)
    return GroupAssignment(kappa=np.zeros(labels.shape[0]), labels=labels)


class TestHermiteAlpha:
    def test_endpoints(self):
        assert hermite_alpha(0, 6) == 0.0
        assert hermite_alpha(6, 6) == 1.0

    def test_midpoint_is_half(self):
        assert hermite_alpha(3, 6) == 0.5

    def test_monotone_and_saturating(self):
        vals = [hermite_alpha(k, 6) for k in range(1, 13)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(v == 1.0 for v in vals[5:])  # k >= 6 saturates

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            hermite_alpha(-1, 6)
        with pytest.raises(ParameterError):
            hermite_alpha(3, 0)

    @given(st.integers(0, 100), st.integers(1, 50))
    def test_stays_in_unit_interval(self, k, n_max):
        assert 0.0 <= hermite_alpha(k, n_max) <= 1.0


def _damped_velocity(h, k):
    """The damped blend (1 - alpha_k) * v_latest + alpha_k * v_prev, read off
    predict: at horizon 1 from a zero newest output the forecast is the blend."""
    assert not h.output.data.any()
    cfg = PredictorConfig(kind=PredictorKind.UNIFORM_DAMPED, n_max=6)
    return predict(h, None, k, 1.0, cfg)


class TestDampedVelocity:
    def test_half_blend(self):
        # v_latest = -2, v_prev = 0, alpha(3, 6) = 0.5 -> -1
        h = _history([(3, [-2.0]), (2, [-2.0]), (1, [0.0])])
        assert h.v_latest.data.tolist() == [[-2.0]]
        assert h.v_prev.data.tolist() == [[0.0]]
        out = _damped_velocity(h, 3)
        assert out.data.tolist() == [[-1.0]]

    def test_equal_velocities_fixed_point(self):
        h = _history([(3, [2.0]), (2, [1.0]), (1, [0.0])])
        for k in range(1, 10):
            out = _damped_velocity(h, k)
            assert out == h.v_latest

    def test_needs_three_entries(self):
        h = _history([(3, [1.0]), (2, [0.0])])
        with pytest.raises(InsufficientHistoryError):
            _damped_velocity(h, 1)

    @given(
        hnp.arrays(np.float64, (2, 6, 2), elements=st.floats(-50, 50)),
        st.integers(1, 12),
    )
    @settings(max_examples=50)
    def test_convexity_bounds_row_norms(self, outputs, k):
        h = _history([(9, outputs[0]), (6, outputs[1]), (2, np.zeros((6, 2)))])
        out = _damped_velocity(h, k)
        blended = np.linalg.norm(out.data, axis=1)
        cap = np.maximum(
            np.linalg.norm(h.v_latest.data, axis=1),
            np.linalg.norm(h.v_prev.data, axis=1),
        )
        assert (blended <= cap * (1 + 1e-12)).all()


class TestPredict:
    def test_all_stable_is_pure_reuse(self):
        h = _history([(3, [[1.0], [2.0]]), (2, [[3.0], [4.0]]), (1, [[5.0], [6.0]])])
        g = _labels([TokenGroup.STABLE, TokenGroup.STABLE])
        out = predict(cut_history(h, g), g, 2, -1.0, PredictorConfig())
        assert out == h.output

    def test_linear_branch_arithmetic(self):
        # y* = 5, v = 2, horizon = 3 -> 11; the descending grid 3 -> 1 with
        # outputs 9 -> 5 yields v = (5-9)/(1-3) = 2
        h = _history([(5, [13.0]), (3, [9.0]), (1, [5.0])])
        assert h.v_latest.data.tolist() == [[2.0]]
        g = _labels([TokenGroup.LINEAR])
        kind = PredictorKind.UNIFORM_LINEAR
        out = predict(cut_history(h, g, kind), g, 1, 3.0, PredictorConfig(kind=kind))
        assert out.data.tolist() == [[11.0]]

    def test_linear_branch_via_grouped_kind(self):
        h = _history([(3, [9.0]), (2, [7.0]), (1, [5.0])])
        g = _labels([TokenGroup.LINEAR])
        out = predict(cut_history(h, g), g, 1, 3.0, PredictorConfig())
        assert out.data.tolist() == [[11.0]]

    def test_chaotic_branch_arithmetic(self):
        # y* = 0, v_latest = 2, v_prev = 0, k = 3, n_max = 6, horizon = 3:
        # blend at alpha 0.5 gives velocity 1, so the forecast is 3
        h = _history([(5, [4.0]), (4, [4.0]), (2, [0.0])])
        assert h.v_latest.data.tolist() == [[2.0]]
        assert h.v_prev.data.tolist() == [[0.0]]
        g = _labels([TokenGroup.CHAOTIC])
        out = predict(h, g, 3, 3.0, PredictorConfig(n_max=6))
        assert out.data.tolist() == [[3.0]]

    def test_uniform_reuse_ignores_labels(self):
        h = _history([(4, [[0.0], [0.0]]), (3, [[1.0], [2.0]]), (2, [[7.0], [9.0]])])
        g = _labels([TokenGroup.CHAOTIC, TokenGroup.LINEAR])
        kind = PredictorKind.UNIFORM_REUSE
        out = predict(cut_history(h, g, kind), g, 1, -1.0, PredictorConfig(kind=kind))
        assert out == h.output

    def test_uniform_kinds_accept_missing_assignment(self):
        h = _history([(4, [0.0]), (3, [1.0]), (2, [2.0])])
        kind = PredictorKind.UNIFORM_LINEAR
        out = predict(cut_history(h, None, kind), None, 1, -1.0, PredictorConfig(kind=kind))
        assert out.data.tolist() == [[3.0]]

    def test_heterogeneous_kinds_require_assignment(self):
        h = _history([(3, [1.0]), (2, [2.0]), (1, [3.0])])
        with pytest.raises(ParameterError):
            predict(h, None, 1, -1.0, PredictorConfig())

    def test_label_length_mismatch(self):
        h = _history([(3, [1.0]), (2, [2.0]), (1, [3.0])])
        g = _labels([TokenGroup.LINEAR, TokenGroup.LINEAR])
        with pytest.raises(DimensionError):
            predict(h, g, 1, -1.0, PredictorConfig())

    def test_history_depth_requirements(self):
        # every kind forecasts from HISTORY_DEPTH outputs, as the warmup makes
        one = _history([(3, [1.0])])
        two = _history([(3, [1.0]), (2, [2.0])])
        g = _labels([TokenGroup.CHAOTIC])
        for kind in PredictorKind:
            for h in (one, two):
                with pytest.raises(InsufficientHistoryError):
                    predict(h, g, 1, -1.0, PredictorConfig(kind=kind, rng_seed=0))

    def test_rejects_bad_k_and_horizon(self):
        h = _history([(3, [1.0]), (2, [2.0]), (1, [3.0])])
        g = _labels([TokenGroup.LINEAR])
        with pytest.raises(ParameterError):
            predict(h, g, 0, -1.0, PredictorConfig())
        with pytest.raises(ParameterError):
            predict(h, g, 1, float("inf"), PredictorConfig())

    def test_mixed_assignment_routes_each_row(self):
        h = _history(
            [
                (3, [[0.0], [0.0], [0.0]]),
                (2, [[1.0], [1.0], [1.0]]),
                (1, [[2.0], [3.0], [4.0]]),
            ]
        )
        g = _labels([TokenGroup.STABLE, TokenGroup.LINEAR, TokenGroup.CHAOTIC])
        out = predict(cut_history(h, g), g, 3, -2.0, PredictorConfig(n_max=6))
        # stable reuses 2; linear extrapolates 3 + (-2)(-2) = 7
        # chaotic blends v_latest=-3, v_prev=-1 at alpha .5 -> -2, 4+(-2)(-2)=8
        assert out.data.tolist() == [[2.0], [7.0], [8.0]]

    @given(
        hnp.arrays(np.float64, (3, 5, 3), elements=st.floats(-20, 20)),
        st.floats(0.25, 8),
        st.floats(-4, -0.25),
        st.integers(1, 8),
    )
    @settings(max_examples=40)
    def test_scale_equivariance(self, outputs, s, horizon, k):
        """predict(s * history) = s * predict(history) for every kind."""
        rng = np.random.default_rng(17)
        labels = rng.integers(0, 3, 5).astype(np.int8)
        g = GroupAssignment(kappa=np.zeros(5), labels=labels)
        for kind in PredictorKind:
            if kind is PredictorKind.RANDOM_GROUPING:
                continue  # identical math to chtp modulo the permutation
            cfg = PredictorConfig(kind=kind)
            base = _history([(9, outputs[0]), (6, outputs[1]), (2, outputs[2])])
            scaled = _history(
                [(9, s * outputs[0]), (6, s * outputs[1]), (2, s * outputs[2])]
            )
            a = predict(cut_history(base, g, kind), g, k, horizon, cfg)
            b = predict(cut_history(scaled, g, kind), g, k, horizon, cfg)
            np.testing.assert_allclose(b.data, s * a.data, rtol=1e-9, atol=1e-9)


class TestUniformKindsAreRowSplits:
    """A uniform kind is the heterogeneous blend with every token in one
    group: no row stable or chaotic for uniform-linear, every row chaotic for
    uniform-damped. The forecasts off each one's refresh agree bit for bit."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 8),
        st.floats(-3.0, 3.0),
        st.integers(1, 12),
        st.floats(-10.0, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_uniform_kind_equals_chtp_with_one_group(
        self, seed, n, d, log_scale, k, horizon
    ):
        rng = np.random.default_rng(seed)
        outputs = 10.0**log_scale * rng.normal(size=(3, n, d))
        h = _history([(9, outputs[0]), (6, outputs[1]), (2, outputs[2])])
        for kind, p_chaotic in ((PredictorKind.UNIFORM_LINEAR, 1.0),
                                (PredictorKind.UNIFORM_DAMPED, 0.0)):
            cfg = PredictorConfig(kind=kind)
            held, _ = refresh(h, cfg, 0)
            uniform = predict(held, None, k, horizon, cfg)
            chtp = PredictorConfig(p_stable=0.0, p_chaotic=p_chaotic)
            held, g = refresh(h, chtp, 0)
            split = predict(held, g, k, horizon, chtp)
            assert uniform.data.tobytes() == split.data.tobytes(), kind


class TestCutHistory:
    """refresh keeps, of v_prev, the rows the damped rule reads, and predict
    reads that one form: its forecast off refresh's history is, bit for bit,
    the scalar blend of the full arrays push_full made, and a v_prev with any
    other row count is rejected."""

    # the one label a uniform kind gives every row
    _UNIFORM_LABEL = {
        PredictorKind.UNIFORM_REUSE: LABEL_STABLE,
        PredictorKind.UNIFORM_LINEAR: LABEL_LINEAR,
        PredictorKind.UNIFORM_DAMPED: LABEL_CHAOTIC,
    }

    @pytest.mark.parametrize("kind", list(PredictorKind), ids=lambda k: k.value)
    def test_refreshed_history_forecasts_the_blend_of_the_full_arrays(self, kind):
        rng = np.random.default_rng(23)
        outputs = rng.normal(size=(3, 10, 4))
        h = _history([(9, outputs[0]), (6, outputs[1]), (2, outputs[2])])
        cfg = PredictorConfig(kind=kind, rng_seed=0)
        held, g = refresh(h, cfg, 0)
        labels = [self._UNIFORM_LABEL.get(kind)] * 10
        if kind in (PredictorKind.CHTP, PredictorKind.RANDOM_GROUPING):
            labels = g.labels.tolist()
        rows = list(zip(h.output.data.tolist(), h.v_latest.data.tolist(),
                        h.v_prev.data.tolist(), labels))
        for k in (1, 3, 7):
            alpha = hermite_alpha(k, cfg.n_max)
            want = np.array([ref_blend(*row, -2.5, alpha) for row in rows])
            assert predict(held, g, k, -2.5, cfg).data.tobytes() == want.tobytes()

    def test_a_push_full_history_is_rejected_under_chtp(self):
        h = _history([(3, np.zeros((10, 2))), (2, np.ones((10, 2))), (1, np.ones((10, 2)))])
        g = group_tokens(np.arange(10.0))  # 3 chaotic rows of v_prev's 10
        with pytest.raises(DimensionError):
            predict(h, g, 1, -1.0, PredictorConfig())

    @pytest.mark.parametrize("kind", [PredictorKind.CHTP, PredictorKind.UNIFORM_LINEAR],
                             ids=lambda k: k.value)
    def test_other_row_counts_are_rejected(self, kind):
        h = _history([(3, np.zeros((10, 2))), (2, np.ones((10, 2))), (1, np.ones((10, 2)))])
        g = group_tokens(np.arange(10.0))  # 3 chaotic rows
        for rows in (1, 9):
            cut = replace(h, v_prev=TokenMatrix(h.v_prev.data[:rows]))
            with pytest.raises(DimensionError):
                predict(cut, g, 1, -1.0, PredictorConfig(kind=kind))


class TestRandomizeGroups:
    def test_preserves_group_sizes(self):
        g = group_tokens(np.arange(40.0))
        shuffled = randomize_groups(g, seed=11, refresh_index=2)
        assert shuffled.counts() == g.counts()
        assert not np.array_equal(shuffled.labels, g.labels)

    def test_deterministic_in_seed_and_refresh(self):
        g = group_tokens(np.arange(40.0))
        a = randomize_groups(g, seed=5, refresh_index=3)
        b = randomize_groups(g, seed=5, refresh_index=3)
        c = randomize_groups(g, seed=5, refresh_index=4)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.labels, c.labels)
