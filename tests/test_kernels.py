import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from worldcache.kernels import (
    LABEL_CHAOTIC,
    LABEL_LINEAR,
    LABEL_STABLE,
    MODE_BY_LABEL,
    MODE_DAMPED,
    MODE_LINEAR,
    blend_rows,
    curvature_rows,
    drift_mean,
    row_norms,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_inputs(seed, n=64, d=16):
    rng = _rng(seed)
    y_star = rng.normal(size=(n, d))
    v_latest = rng.normal(size=(n, d))
    v_prev = rng.normal(size=(n, d))
    labels = rng.integers(0, 3, size=n).astype(np.int8)
    return y_star, v_latest, v_prev, labels


# ---------------------------------------------------------------------------
# Scalar pure-Python reference of the four formulas, one row at a time.
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


def ref_blend(y_star, v_latest, v_prev, label, horizon, alpha):
    if label == LABEL_STABLE:
        return list(y_star)
    if label == LABEL_LINEAR:
        return [y + horizon * v for y, v in zip(y_star, v_latest)]
    return [
        y + horizon * ((1.0 - alpha) * vl + alpha * vp)
        for y, vl, vp in zip(y_star, v_latest, v_prev)
    ]


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
    @pytest.mark.parametrize("mode", [MODE_BY_LABEL, MODE_LINEAR, MODE_DAMPED])
    @given(
        st.data(),
        _matrices(3, elements=st.floats(-1e6, 1e6)),
        st.floats(-50.0, 50.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=40)
    def test_matches_scalar_reference(self, mode, data, arrays, horizon, alpha):
        y_star, v_latest, v_prev = arrays
        labels = data.draw(_labels_for(y_star.shape[0]))
        out = blend_rows(y_star, v_latest, v_prev, labels, horizon, alpha, mode)
        forced = {MODE_LINEAR: LABEL_LINEAR, MODE_DAMPED: LABEL_CHAOTIC}.get(mode)
        want = [
            ref_blend(y, vl, vp, lab if forced is None else forced, horizon, alpha)
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
        out = blend_rows(y_star, v_latest, v_prev, labels, 3.0, 0.5,
                         MODE_BY_LABEL)
        # stable: reuse; linear: 1 + 3*2; damped: 1 + 3*(0.5*2 + 0.5*0)
        assert np.array_equal(out, np.array([[1.0], [7.0], [4.0]]))

    def test_linear_mode_ignores_labels(self):
        y_star, v_latest, v_prev, labels = _random_inputs(3, n=12, d=5)
        other = np.full(12, LABEL_STABLE, dtype=np.int8)
        a = blend_rows(y_star, v_latest, v_prev, labels, -2.0, 0.4,
                       MODE_LINEAR)
        b = blend_rows(y_star, v_latest, v_prev, other, -2.0, 0.4,
                       MODE_LINEAR)
        assert np.array_equal(a, b)
        assert np.array_equal(a, y_star + -2.0 * v_latest)

    def test_damped_mode_blends_velocities(self):
        y_star, v_latest, v_prev, labels = _random_inputs(4, n=8, d=3)
        out = blend_rows(y_star, v_latest, v_prev, labels, 1.5, 0.25,
                         MODE_DAMPED)
        vel = (1.0 - 0.25) * v_latest + 0.25 * v_prev
        np.testing.assert_allclose(out, y_star + 1.5 * vel, rtol=1e-15)

    def test_alpha_zero_damped_equals_linear(self):
        y_star, v_latest, v_prev, labels = _random_inputs(5, n=6, d=2)
        damped = blend_rows(y_star, v_latest, v_prev, labels, 2.0, 0.0,
                            MODE_DAMPED)
        linear = blend_rows(y_star, v_latest, v_prev, labels, 2.0, 0.99,
                            MODE_LINEAR)
        assert np.array_equal(damped, linear)


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
        assert drift_mean(y_t, y_prev, kappa, labels) == want

    def test_only_chaotic_rows_contribute(self):
        y_t = np.array([[1.0], [10.0], [3.0]])
        y_prev = np.array([[0.0], [0.0], [0.0]])
        kappa = np.array([0.5, 0.5, 0.5])
        labels = np.array([LABEL_CHAOTIC, LABEL_STABLE, LABEL_CHAOTIC],
                          dtype=np.int8)
        # mean over rows 0 and 2: (0.5*1 + 0.5*3) / 2
        assert drift_mean(y_t, y_prev, kappa, labels) == pytest.approx(1.0)

    def test_no_chaotic_rows_falls_back_to_all(self):
        y_t = np.array([[2.0], [4.0]])
        y_prev = np.zeros((2, 1))
        kappa = np.array([1.0, 1.0])
        labels = np.array([LABEL_STABLE, LABEL_LINEAR], dtype=np.int8)
        assert drift_mean(y_t, y_prev, kappa, labels) == pytest.approx(3.0)

    def test_identical_latents_give_zero(self):
        y, _, _, labels = _random_inputs(8, n=9, d=4)
        kappa = np.ones(9)
        assert drift_mean(y, y.copy(), kappa, labels) == 0.0

    def test_deterministic_across_calls(self):
        y_t, y_prev, _, labels = _random_inputs(13)
        kappa = np.abs(_rng(14).normal(size=64))
        a = drift_mean(y_t, y_prev, kappa, labels)
        b = drift_mean(y_t, y_prev, kappa, labels)
        assert a == b
