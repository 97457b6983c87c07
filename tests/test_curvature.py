import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from worldcache import (
    DimensionError,
    FullHistory,
    InsufficientHistoryError,
    OrderingError,
    ParameterError,
    Timestep,
    TokenGroup,
    TokenMatrix,
    compute_curvature,
    group_tokens,
    push_full,
)


def _ts(value, index=0):
    return Timestep(value=float(value), index=index)


def _history(ts_and_rows):
    """Build a history from [(t, scalar-or-row), ...], newest last."""
    h = FullHistory()
    for i, (t, y) in enumerate(ts_and_rows):
        row = np.atleast_2d(np.asarray(y, dtype=np.float64))
        h = push_full(h, _ts(t, i), TokenMatrix(row))
    return h


class TestPushFull:
    def test_first_push_has_no_velocities(self):
        h = push_full(FullHistory(), _ts(50), TokenMatrix([[1.0]]))
        assert len(h) == 1
        assert h.v_latest is None
        assert h.v_prev is None

    def test_three_pushes_fill_both_velocities(self):
        h = _history([(50, [0.0]), (49, [1.0]), (48, [2.0])])
        assert len(h) == 3
        # descending grid: dt = 48 - 49 = -1, so both velocities are -1
        assert h.v_latest.data.tolist() == [[-1.0]]
        assert h.v_prev.data.tolist() == [[-1.0]]

    def test_newest_entry_first(self):
        h = _history([(50, [0.0]), (49, [1.0])])
        assert h.t == 49
        assert h.dt == 49 - 50

    def test_depth_caps_at_three(self):
        # velocities -1, -2, -3 over 50->49, 49->48, 48->47
        h = _history([(50, [0.0]), (49, [1.0]), (48, [3.0]), (47, [6.0])])
        assert len(h) == 3
        assert h.t == 47
        assert h.dt == 47 - 48
        # the oldest FULL step still read is t = 49, the start of v_prev
        assert h.v_latest.data.tolist() == [[-3.0]]
        assert h.v_prev.data.tolist() == [[-2.0]]

    def test_rejects_non_decreasing_timestep(self):
        h = _history([(50, [0.0])])
        with pytest.raises(OrderingError):
            push_full(h, _ts(50, 1), TokenMatrix([[1.0]]))
        with pytest.raises(OrderingError):
            push_full(h, _ts(51, 1), TokenMatrix([[1.0]]))

    def test_rejects_shape_change(self):
        h = _history([(50, [0.0])])
        with pytest.raises(DimensionError):
            push_full(h, _ts(49, 1), TokenMatrix([[1.0, 2.0]]))

    def test_velocity_rotation_keeps_pairing(self):
        # y = t^2 sampled at 4, 3, 2: velocities (9-16)/(3-4)=7, (4-9)/(2-3)=5
        h = _history([(4, [16.0]), (3, [9.0]), (2, [4.0])])
        assert h.v_latest.data.tolist() == [[5.0]]
        assert h.v_prev.data.tolist() == [[7.0]]


class TestComputeCurvature:
    def test_affine_rows_have_zero_curvature(self):
        # token 0 follows y = 2t, token 1 is constant; both are exactly flat
        h = _history(
            [(3, [[6.0], [1.0]]), (2, [[4.0], [1.0]]), (1, [[2.0], [1.0]])]
        )
        kappa = compute_curvature(h)
        assert kappa.tolist() == [0.0, 0.0]

    def test_constant_rows_are_zero_without_eps(self):
        # 0/0 is defined as 0 even when eps makes the denominator 0
        h = _history([(3, [5.0]), (2, [5.0]), (1, [5.0])])
        assert compute_curvature(h, eps=0.0).tolist() == [0.0]
        assert compute_curvature(h).tolist() == [0.0]

    def test_quadratic_hand_value(self):
        # y = t^2 at t = 3, 2, 1: v_latest = 3, v_prev = 5, a = 2
        h = _history([(3, [9.0]), (2, [4.0]), (1, [1.0])])
        kappa = compute_curvature(h, eps=1e-8)
        assert abs(kappa[0] - 2.0 / (9.0 + 1e-8)) <= 1e-12

    def test_needs_three_entries(self):
        h = _history([(3, [9.0]), (2, [4.0])])
        with pytest.raises(InsufficientHistoryError):
            compute_curvature(h)

    def test_rejects_bad_eps(self):
        h = _history([(3, [9.0]), (2, [4.0]), (1, [1.0])])
        with pytest.raises(ParameterError):
            compute_curvature(h, eps=-1e-9)
        with pytest.raises(ParameterError):
            compute_curvature(h, eps=float("nan"))

    @pytest.mark.parametrize("prev_rows", [1, 4])
    def test_rejects_a_v_prev_of_another_shape(self, prev_rows):
        # a history whose v_prev holds only some rows, as the pipeline keeps
        # it through a cached streak: neither broadcast nor numpy's ValueError
        rng = np.random.default_rng(3)
        v_latest, v_prev = rng.normal(size=(6, 3)), rng.normal(size=(prev_rows, 3))
        h = FullHistory(output=TokenMatrix(np.zeros((6, 3))), t=1.0, dt=-1.0,
                        v_latest=TokenMatrix(v_latest), v_prev=TokenMatrix(v_prev))
        with pytest.raises(DimensionError):
            compute_curvature(h)

    @given(
        hnp.arrays(np.float64, (3, 5, 4), elements=st.floats(-100, 100)),
        st.floats(0.5, 10),
    )
    # one token with outputs 34, 0, 4.32e-154: kappa(y) overflows to inf while
    # kappa(2y) is the finite 9.109e307
    @example(np.pad([[[34.0]], [[0.0]], [[4.32e-154]]], ((0, 0), (0, 4), (0, 3))), 2.0)
    # one token with outputs 0, 2**-1022, 0: kappa(y) is 2**1023, so
    # kappa(y) / 0.5 is past the float range, and kappa(0.5 y) must be inf
    @example(np.pad([[[0.0]], [[2.0**-1022]], [[0.0]]], ((0, 0), (0, 4), (0, 3))), 0.5)
    @settings(max_examples=50)
    def test_scale_covariance_at_zero_eps(self, outputs, s):
        """kappa(s*y) = kappa(y) / s exactly when eps = 0. Where kappa(y) is
        past the float range, kappa(s*y) must be at least the largest float / s."""
        base = _history([(3, outputs[0]), (2, outputs[1]), (1, outputs[2])])
        scaled = _history([(3, s * outputs[0]), (2, s * outputs[1]), (1, s * outputs[2])])
        k0 = compute_curvature(base, eps=0.0)
        k1 = compute_curvature(scaled, eps=0.0)
        finite = np.isfinite(k0)
        with np.errstate(over="ignore"):  # a quotient past the float range is inf
            want = k0[finite] / s
        np.testing.assert_allclose(k1[finite], want, rtol=1e-9, atol=1e-12)
        assert (k1[~finite] >= sys.float_info.max / s * (1 - 1e-9)).all()

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_scale_covariance_at_extreme_scales(self, scale, s):
        """Rows whose sums of squares leave the normal float range (subnormal
        near 1e-160, inf near 1e160) are as accurate as rows at unit scale."""
        outputs = np.random.default_rng(3).normal(size=(3, 5, 4))

        def kappa(c):
            y = c * outputs
            h = _history([(3, y[0]), (2, y[1]), (1, y[2])])
            return compute_curvature(h, eps=0.0)

        unit = kappa(1.0)
        at_scale = kappa(scale)
        np.testing.assert_allclose(at_scale, unit / scale, rtol=1e-12)
        np.testing.assert_allclose(kappa(s * scale), at_scale / s, rtol=1e-12)

    def test_tiny_rows_under_eps_divide_by_eps(self):
        outputs = np.random.default_rng(4).normal(size=(3, 5, 4))
        unit = _history([(3, outputs[0]), (2, outputs[1]), (1, outputs[2])])
        tiny = _history([(3, 1e-160 * outputs[0]), (2, 1e-160 * outputs[1]),
                         (1, 1e-160 * outputs[2])])
        a_norm = np.linalg.norm(unit.v_latest.data - unit.v_prev.data, axis=1)
        np.testing.assert_allclose(
            compute_curvature(tiny, eps=1e-8), 1e-160 * a_norm / 1e-8, rtol=1e-12
        )

    def test_in_range_rows_unchanged_by_an_extreme_neighbour(self):
        outputs = np.random.default_rng(5).normal(size=(3, 5, 4))
        mixed = outputs.copy()
        mixed[:, 2] *= 1e200
        mixed[:, 4] *= 1e-170
        k_plain = compute_curvature(
            _history([(3, outputs[0]), (2, outputs[1]), (1, outputs[2])])
        )
        k_mixed = compute_curvature(
            _history([(3, mixed[0]), (2, mixed[1]), (1, mixed[2])])
        )
        assert np.array_equal(k_mixed[[0, 1, 3]], k_plain[[0, 1, 3]])
        assert np.isfinite(k_mixed).all()

    def test_acceleration_at_the_subnormal_floor_counts_as_zero(self):
        # A one-ulp second difference is rounding noise of the outputs: it
        # gives 0 against a zero velocity, as does the all-zero row it rounds
        # to when the outputs are halved. Above 2**-1042 it counts again.
        ulp = np.nextafter(0.0, 1.0)
        for a, want in [(ulp, 0.0), (2.0**-1043, 0.0), (2.0**-1040, math.inf)]:
            h = _history([(3, [[a, 0.0]]), (2, [[0.0, 0.0]]), (1, [[0.0, 0.0]])])
            assert compute_curvature(h, eps=0.0).tolist() == [want]

    # slopes are dyadic (m/16) and the grid is small integers, so every
    # product, sum, and difference below is exact and the curvature must come
    # out identically zero rather than merely small
    @given(
        hnp.arrays(
            np.int64, (5, 4), elements=st.integers(-1600, 1600)
        ).map(lambda m: m.astype(np.float64) / 16.0)
    )
    @settings(max_examples=50)
    def test_affine_trajectories_are_flat(self, slope):
        base = np.ones_like(slope)
        h = _history([(t, base + t * slope) for t in (7.0, 5.0, 2.0)])
        assert (compute_curvature(h, eps=0.0) == 0.0).all()


class TestGroupTokens:
    def test_ten_token_example(self):
        g = group_tokens(np.arange(10.0), p_stable=0.3, p_chaotic=0.7)
        assert g.members[TokenGroup.STABLE].tolist() == [0, 1, 2]
        assert g.members[TokenGroup.CHAOTIC].tolist() == [7, 8, 9]
        assert g.members[TokenGroup.LINEAR].tolist() == [3, 4, 5, 6]

    def test_ties_break_by_ascending_index(self):
        g = group_tokens(np.zeros(4), p_stable=0.25, p_chaotic=0.75)
        assert g.members[TokenGroup.STABLE].tolist() == [0]
        assert g.members[TokenGroup.CHAOTIC].tolist() == [3]
        assert g.members[TokenGroup.LINEAR].tolist() == [1, 2]

    def test_single_token_is_chaotic(self):
        g = group_tokens(np.array([0.42]), p_stable=0.3, p_chaotic=0.7)
        assert g.members[TokenGroup.STABLE].size == 0
        assert g.members[TokenGroup.CHAOTIC].tolist() == [0]
        assert g.members[TokenGroup.LINEAR].size == 0

    def test_rejects_crossed_percentiles(self):
        with pytest.raises(ParameterError):
            group_tokens(np.arange(4.0), p_stable=0.8, p_chaotic=0.2)

    def test_rejects_out_of_range_percentiles(self):
        with pytest.raises(ParameterError):
            group_tokens(np.arange(4.0), p_stable=-0.1)
        with pytest.raises(ParameterError):
            group_tokens(np.arange(4.0), p_chaotic=1.5)

    def test_rejects_empty_and_nan(self):
        with pytest.raises(DimensionError):
            group_tokens(np.array([]))
        with pytest.raises(ParameterError):
            group_tokens(np.array([0.0, np.nan]))

    def test_counts_helper_matches_indices(self):
        g = group_tokens(np.arange(10.0))
        counts = g.counts()
        for grp in TokenGroup:
            assert counts[grp] == g.members[grp].size

    # dyadic percentiles (multiples of 1/64) make p*n exact in floats, so the
    # naive floor/ceil below is a true independent oracle for the counts
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 200),
            elements=st.floats(0, 1e6),
        ),
        st.integers(0, 64),
        st.integers(0, 64),
    )
    @settings(max_examples=100)
    def test_exact_counts_partition(self, kappa, a, b):
        p_s, p_c = min(a, b) / 64.0, max(a, b) / 64.0
        g = group_tokens(kappa, p_stable=p_s, p_chaotic=p_c)
        n = kappa.shape[0]
        counts = g.counts()
        assert counts[TokenGroup.STABLE] == int(np.floor(p_s * n))
        assert counts[TokenGroup.CHAOTIC] == int(np.ceil((1 - p_c) * n))
        assert sum(counts.values()) == n
        all_idx = np.concatenate([g.members[grp] for grp in TokenGroup])
        assert np.array_equal(np.sort(all_idx), np.arange(n))

    @given(
        hnp.arrays(
            np.float64,
            st.integers(2, 64),
            elements=st.floats(0, 1),
            unique=True,
        ),
        st.integers(0, 64),
        st.integers(0, 64),
    )
    @settings(max_examples=100)
    def test_partition_for_arbitrary_percentiles(self, kappa, a, b):
        p_s, p_c = min(a, b) / 64.0 * 0.999, max(a, b) / 64.0 * 0.999
        g = group_tokens(kappa, p_stable=p_s, p_chaotic=p_c)
        counts = g.counts()
        n = kappa.shape[0]
        assert sum(counts.values()) == n
        all_idx = np.concatenate([g.members[grp] for grp in TokenGroup])
        assert np.array_equal(np.sort(all_idx), np.arange(n))

    @given(
        st.sets(st.integers(0, 100_000), min_size=2, max_size=64).map(sorted)
    )
    @settings(max_examples=60)
    def test_invariant_under_monotone_transform(self, values):
        """Rank statistics only: a strictly increasing map keeps the split.

        Integer-valued kappas stay distinct under the transform, so float
        rounding cannot create ties that would reshuffle the stable sort.
        """
        rng = np.random.default_rng(len(values))
        kappa = np.asarray(values, dtype=np.float64)[rng.permutation(len(values))]
        g0 = group_tokens(kappa)
        g1 = group_tokens(np.sqrt(kappa) + 3.0)
        assert np.array_equal(g0.labels, g1.labels)

    def test_stable_block_gets_lowest_kappa(self):
        rng = np.random.default_rng(0)
        kappa = rng.uniform(size=50)
        g = group_tokens(kappa)
        s_max = kappa[g.members[TokenGroup.STABLE]].max()
        l_vals = kappa[g.members[TokenGroup.LINEAR]]
        c_min = kappa[g.members[TokenGroup.CHAOTIC]].min()
        assert s_max <= l_vals.min()
        assert l_vals.max() <= c_min
