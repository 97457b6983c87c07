import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from worldcache.kernels import (
    blend_rows,
    curvature_rows,
    drift_mean,
    fro_norm,
    row_norms,
    sumsq,
)

from forecasts import LABEL_CHAOTIC, LABEL_LINEAR, LABEL_STABLE, ref_blend


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_inputs(seed, n=64, d=16):
    rng = _rng(seed)
    y_star = rng.normal(size=(n, d))
    v_latest = rng.normal(size=(n, d))
    v_prev = rng.normal(size=(n, d))
    labels = rng.integers(0, 3, size=n).astype(np.int8)
    return y_star, v_latest, v_prev, labels


def _rows(labels, label):
    """Ascending indices of the rows carrying `label`, as the kernels take them."""
    return np.flatnonzero(labels == label)


# ---------------------------------------------------------------------------
# Scalar pure-Python reference of the four formulas, one row at a time (the
# blend's, ref_blend, is shared with the forecast tests).
#
# On dyadic inputs (k / 1024 with |k| <= 2**20) every square and every row sum
# is exact, so the reference and the kernels round the same operations in the
# same order and must agree bit for bit.
# ---------------------------------------------------------------------------

def ref_row_norm(row):
    return math.sqrt(sum(x * x for x in row))


def ref_curvature(v_latest, v_prev, dt, eps):
    a_norm = ref_row_norm([(a - b) / dt for a, b in zip(v_latest, v_prev)])
    denom = sum(x * x for x in v_latest) + eps
    if denom == 0.0:
        return 0.0 if a_norm == 0.0 else math.inf
    return a_norm / denom


def ref_drift_mean(y_t, y_prev, kappa, labels):
    rows = [i for i, lab in enumerate(labels) if lab == LABEL_CHAOTIC]
    rows = rows or list(range(len(labels)))
    total = 0.0
    for i in rows:
        total += kappa[i] * ref_row_norm([a - b for a, b in zip(y_t[i], y_prev[i])])
    return total / len(rows)


_dyadic = st.integers(-(2**20), 2**20).map(lambda k: k / 1024.0)
_shapes = st.tuples(st.integers(1, 12), st.integers(1, 8))


@st.composite
def _matrices(draw, count, elements=_dyadic):
    shape = draw(_shapes)
    return [
        draw(hnp.arrays(np.float64, shape, elements=elements)) for _ in range(count)
    ]


def _labels_for(n):
    return hnp.arrays(np.int8, n, elements=st.sampled_from([0, 1, 2]))


class TestRowNorms:
    def test_matches_linalg_norm(self):
        a = _rng(1).normal(size=(50, 7))
        expected = np.linalg.norm(a, axis=1)
        np.testing.assert_allclose(row_norms(a), expected, rtol=1e-13, atol=0)

    def test_zero_rows_give_exact_zero(self):
        a = np.zeros((4, 3))
        assert np.array_equal(row_norms(a), np.zeros(4))

    @given(_matrices(1))
    @settings(max_examples=60)
    def test_matches_scalar_reference(self, arrays):
        (a,) = arrays
        assert row_norms(a).tolist() == [ref_row_norm(row) for row in a.tolist()]

    @pytest.mark.parametrize("exp", [600, -520])
    def test_rows_past_the_normal_range_scale_exactly(self, exp):
        # squares of 2**600 overflow and of 2**-520 are subnormal; rescaling
        # by a power of two keeps every bit of the in-range norm
        a = _rng(2).normal(size=(20, 5))
        a[3] = 0.0
        assert np.array_equal(row_norms(np.ldexp(a, exp)), np.ldexp(row_norms(a), exp))


class TestFroNorm:
    def test_matches_linalg_norm_to_rounding(self):
        # np.linalg.norm sums through BLAS's dot, whose order follows its
        # thread count; fro_norm sums through einsum, so only the last bits differ
        for seed in range(5):
            a = _rng(seed).normal(size=(40, 6)) * 10.0 ** (seed - 2)
            assert fro_norm(a) == pytest.approx(float(np.linalg.norm(a)), rel=1e-15)

    def test_is_the_root_of_the_pairwise_sum_of_the_row_sums(self):
        a = _rng(4).normal(size=(300, 7))
        sums = sumsq(a)
        assert fro_norm(a) == fro_norm(a, sums) == math.sqrt(np.add.reduce(sums))

    @pytest.mark.parametrize("exp", [600, -520])
    def test_past_the_normal_range(self, exp):
        # the same rule at a power of two: every bit of the in-range norm stays
        a = _rng(3).normal(size=(30, 4))
        want = math.ldexp(float(np.linalg.norm(a)), exp)
        assert fro_norm(np.ldexp(a, exp)) == pytest.approx(want, rel=1e-14)
        assert fro_norm(np.ldexp(a, exp)) == math.ldexp(fro_norm(a), exp)

    def test_past_the_float_range_is_inf(self):
        assert fro_norm(np.full((2, 2), 1e308)) == math.inf
        assert fro_norm(np.zeros((2, 3))) == 0.0


class TestCurvatureRows:
    @given(
        _matrices(2),
        st.sampled_from([-2.0, -1.0, -0.5, 0.25]),
        st.sampled_from([0.0, 2.0**-20, 1.0]),
    )
    @settings(max_examples=60)
    def test_matches_scalar_reference(self, arrays, dt, eps):
        v_latest, v_prev = arrays
        want = [
            ref_curvature(vl, vp, dt, eps)
            for vl, vp in zip(v_latest.tolist(), v_prev.tolist())
        ]
        assert curvature_rows(v_latest, v_prev, dt, eps).tolist() == want

    def test_zero_over_zero_is_zero(self):
        z = np.zeros((3, 4))
        out = curvature_rows(z, z, -1.0, 0.0)
        assert np.array_equal(out, np.zeros(3))

    def test_nonzero_acceleration_over_zero_speed_is_inf(self):
        v_latest = np.zeros((2, 3))
        v_prev = np.ones((2, 3))
        out = curvature_rows(v_latest, v_prev, -1.0, 0.0)
        assert np.all(np.isinf(out))

    def test_rowwise_formula(self):
        _, v_latest, v_prev, _ = _random_inputs(9, n=10, d=4)
        dt = -0.5
        out = curvature_rows(v_latest, v_prev, dt, 1e-8)
        for i in range(10):
            acc = (v_latest[i] - v_prev[i]) / dt
            want = np.linalg.norm(acc) / (v_latest[i] @ v_latest[i] + 1e-8)
            assert out[i] == pytest.approx(want, rel=1e-12)


class TestBlendRows:
    @pytest.mark.parametrize("forced", [None, LABEL_LINEAR, LABEL_CHAOTIC],
                             ids=["drawn", "all-linear", "all-chaotic"])
    @given(
        st.data(),
        _matrices(3, elements=st.floats(-1e6, 1e6)),
        st.floats(-50.0, 50.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=40)
    def test_matches_scalar_reference(self, forced, data, arrays, horizon, alpha):
        y_star, v_latest, v_prev = arrays
        labels = data.draw(_labels_for(y_star.shape[0]))
        if forced is not None:
            labels = np.full_like(labels, forced)
        chaotic = _rows(labels, LABEL_CHAOTIC)
        out = blend_rows(y_star, v_latest, v_prev[chaotic], _rows(labels, LABEL_STABLE),
                         chaotic, horizon, alpha)
        want = [
            ref_blend(y, vl, vp, lab, horizon, alpha)
            for y, vl, vp, lab in zip(
                y_star.tolist(), v_latest.tolist(), v_prev.tolist(), labels.tolist()
            )
        ]
        assert out.tolist() == want

    def test_by_label_routes_each_row(self):
        y_star = np.array([[1.0], [1.0], [1.0]])
        v_latest = np.array([[2.0], [2.0], [2.0]])
        v_prev = np.array([[0.0], [0.0], [0.0]])
        labels = np.array([LABEL_STABLE, LABEL_LINEAR, LABEL_CHAOTIC],
                          dtype=np.int8)
        chaotic = _rows(labels, LABEL_CHAOTIC)
        out = blend_rows(y_star, v_latest, v_prev[chaotic], _rows(labels, LABEL_STABLE),
                         chaotic, 3.0, 0.5)
        # stable: reuse; linear: 1 + 3*2; damped: 1 + 3*(0.5*2 + 0.5*0)
        assert np.array_equal(out, np.array([[1.0], [7.0], [4.0]]))

    def test_overflow_in_a_stable_row_is_discarded_silently(self):
        y_star = np.array([[1.0], [1.0]])
        v_latest = np.array([[1e308], [2.0]])
        labels = np.array([LABEL_STABLE, LABEL_LINEAR], dtype=np.int8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chaotic = _rows(labels, LABEL_CHAOTIC)
            out = blend_rows(y_star, v_latest, v_latest[chaotic],
                             _rows(labels, LABEL_STABLE), chaotic, 3.0, 0.5)
        assert np.array_equal(out, np.array([[1.0], [7.0]]))

    def test_an_empty_split_is_linear_everywhere(self):
        y_star, v_latest, v_prev, _ = _random_inputs(3, n=12, d=5)
        out = blend_rows(y_star, v_latest, v_prev[_NONE], _NONE, _NONE, -2.0, 0.4)
        ignored = blend_rows(y_star, v_latest, -v_prev[_NONE], _NONE, _NONE, -2.0, 0.9)
        assert np.array_equal(out, ignored)  # no row reads v_prev or alpha
        assert np.array_equal(out, y_star + -2.0 * v_latest)

    def test_an_all_chaotic_split_blends_velocities(self):
        y_star, v_latest, v_prev, _ = _random_inputs(4, n=8, d=3)
        out = blend_rows(y_star, v_latest, v_prev, _NONE, np.arange(8), 1.5, 0.25)
        vel = (1.0 - 0.25) * v_latest + 0.25 * v_prev
        assert np.array_equal(out, y_star + 1.5 * vel)

    def test_alpha_zero_all_chaotic_equals_empty_split(self):
        y_star, v_latest, v_prev, _ = _random_inputs(5, n=6, d=2)
        damped = blend_rows(y_star, v_latest, v_prev, _NONE, np.arange(6), 2.0, 0.0)
        linear = blend_rows(y_star, v_latest, v_prev[_NONE], _NONE, _NONE, 2.0, 0.99)
        assert np.array_equal(damped, linear)


_NONE = np.empty(0, dtype=np.intp)


class TestDriftMean:
    @given(st.data(), _matrices(2))
    @settings(max_examples=60)
    def test_matches_scalar_reference(self, data, arrays):
        y_t, y_prev = arrays
        n = y_t.shape[0]
        kappa = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1e3)))
        labels = data.draw(_labels_for(n))
        want = ref_drift_mean(y_t.tolist(), y_prev.tolist(), kappa.tolist(),
                              labels.tolist())
        assert drift_mean(y_t, y_prev, kappa, _rows(labels, LABEL_CHAOTIC)) == want

    def test_only_chaotic_rows_contribute(self):
        y_t = np.array([[1.0], [10.0], [3.0]])
        y_prev = np.array([[0.0], [0.0], [0.0]])
        kappa = np.array([0.5, 0.5, 0.5])
        labels = np.array([LABEL_CHAOTIC, LABEL_STABLE, LABEL_CHAOTIC],
                          dtype=np.int8)
        # mean over rows 0 and 2: (0.5*1 + 0.5*3) / 2
        assert drift_mean(y_t, y_prev, kappa, _rows(labels, LABEL_CHAOTIC)) == \
            pytest.approx(1.0)

    def test_no_chaotic_rows_falls_back_to_all(self):
        y_t = np.array([[2.0], [4.0]])
        y_prev = np.zeros((2, 1))
        kappa = np.array([1.0, 1.0])
        labels = np.array([LABEL_STABLE, LABEL_LINEAR], dtype=np.int8)
        assert drift_mean(y_t, y_prev, kappa, _rows(labels, LABEL_CHAOTIC)) == \
            pytest.approx(3.0)

    def test_identical_latents_give_zero(self):
        y, _, _, labels = _random_inputs(8, n=9, d=4)
        kappa = np.ones(9)
        assert drift_mean(y, y.copy(), kappa, _rows(labels, LABEL_CHAOTIC)) == 0.0

    def test_deterministic_across_calls(self):
        y_t, y_prev, _, labels = _random_inputs(13)
        kappa = np.abs(_rng(14).normal(size=64))
        a = drift_mean(y_t, y_prev, kappa, _rows(labels, LABEL_CHAOTIC))
        b = drift_mean(y_t, y_prev, kappa, _rows(labels, LABEL_CHAOTIC))
        assert a == b

    def test_a_non_finite_mean_is_returned_without_a_warning(self):
        # an inf kappa (eps = 0) times a zero and a nonzero displacement, and
        # a difference past the float range; the caller rejects each
        one, inf = np.arange(1), np.array([math.inf])
        y = np.array([[1.0, 0.0]])
        assert math.isnan(drift_mean(y, y.copy(), inf, one))
        assert drift_mean(2.0 * y, y, inf, one) == math.inf
        big = np.array([[1.5e308]])
        assert drift_mean(big, -big, np.ones(1), one) == math.inf
