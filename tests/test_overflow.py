"""Values the loop computes are guarded by the FPU's overflow and invalid
flags instead of a finiteness scan: the Euler update, the history velocity and
the forecast. Each must fail with the scan's ParameterError, and leak no
numpy warning, exactly when a scan of its result would fail."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from worldcache import (
    EulerScheduler,
    FullHistory,
    GroupAssignment,
    ParameterError,
    PredictorConfig,
    PredictorKind,
    Timestep,
    TokenGroup,
    TokenMatrix,
    TraceBackbone,
    axpy_rows,
    hermite_alpha,
    oracle_run,
    predict,
    push_full,
    write_trace,
)
from worldcache.cli import main

from forecasts import cut_history

NON_FINITE = "token matrix contains non-finite values"
STABLE, LINEAR, CHAOTIC = (int(g) for g in TokenGroup)


def _quiet(fn, *args):
    """fn(*args) with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


def _history(y_star, v_latest, v_prev) -> FullHistory:
    """Three FULL outputs ending in y_star, with the given velocities, as
    push_full makes them: v_prev has every row."""
    return FullHistory(
        TokenMatrix(y_star), 0.0, 1.0, TokenMatrix(v_latest), TokenMatrix(v_prev)
    )


def _groups(labels) -> GroupAssignment:
    labels = np.asarray(labels, dtype=np.int8)
    return GroupAssignment(kappa=np.zeros(labels.size), labels=labels)


class _ConstantBackbone:
    def __init__(self, value):
        self.value = value

    def evaluate(self, z, t):
        return TokenMatrix(np.full(z.shape, self.value))


class TestEulerCoefficient:
    @pytest.mark.parametrize("output", [0.0, 1.0])
    def test_a_coefficient_past_the_float_range_raises(self, output):
        # t_to - t_from = -2e308 is -inf, and -inf * y raises no flag
        sched = EulerScheduler((Timestep(1e308, 0), Timestep(-1e308, 1)))
        z0 = TokenMatrix(np.zeros((2, 3)))
        with pytest.raises(ParameterError, match=NON_FINITE):
            _quiet(oracle_run, _ConstantBackbone(output), sched, z0)

    def test_an_empty_update_takes_any_coefficient(self):
        # nothing is non-finite in an empty result, as before
        empty = TokenMatrix(np.zeros((0, 3)))
        assert _quiet(axpy_rows, empty, empty, -math.inf).shape == (0, 3)


class TestVelocity:
    def test_outputs_at_the_ends_of_the_range_over_a_small_dt_raise(self):
        h = push_full(FullHistory(), Timestep(1.0, 0), TokenMatrix(np.full((2, 2), 1e308)))
        with pytest.raises(ParameterError, match=NON_FINITE):
            _quiet(push_full, h, Timestep(0.999, 1), TokenMatrix(np.full((2, 2), -1e308)))

    def test_a_replayed_velocity_past_the_range_exits_2(self, tmp_path, capsys):
        # float32 outputs 6e38 apart over steps of 1e-300: a velocity of 6e338
        path = tmp_path / "steep.wct"
        outputs = np.array([3e38, -3e38, 3e38, -3e38], dtype=np.float32)[:, None, None]
        write_trace(path, TraceBackbone([4e-300, 3e-300, 2e-300, 1e-300],
                                        np.tile(outputs, (1, 2, 2))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["replay", str(path), "--out", str(tmp_path), "--run-id", "r"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {NON_FINITE}\n"


class TestForecast:
    # y* = 1 everywhere; row 0 gets the huge velocity, horizon 3
    @pytest.mark.parametrize("label", [LINEAR, CHAOTIC])
    def test_a_row_past_the_range_raises(self, label):
        h = _history([[1.0], [1.0]], [[1e308], [2.0]], [[1e308], [2.0]])
        g = _groups([label, LINEAR])
        with pytest.raises(ParameterError, match=NON_FINITE):
            _quiet(predict, cut_history(h, g), g, 6, 3.0, PredictorConfig())

    def test_a_chaotic_row_past_the_range_on_its_older_velocity_raises(self):
        # alpha = 1 at k >= n_max: the damped rule reads only v_prev
        h = _history([[1.0], [1.0]], [[2.0], [2.0]], [[1e308], [2.0]])
        g = _groups([CHAOTIC, LINEAR])
        with pytest.raises(ParameterError, match=NON_FINITE):
            _quiet(predict, cut_history(h, g), g, 6, 3.0, PredictorConfig())

    @pytest.mark.parametrize(
        "label, v_prev, want",
        [(STABLE, 1e308, 1.0), (CHAOTIC, 2.0, 7.0)],
        ids=["stable-row", "chaotic-row"],
    )
    def test_an_overwritten_linear_rule_past_the_range_is_discarded(
        self, label, v_prev, want
    ):
        # the linear rule of a stable or chaotic row is replaced by its own
        # rule; at alpha = 1 the chaotic row reads only v_prev
        h = _history([[1.0], [1.0]], [[1e308], [2.0]], [[v_prev], [2.0]])
        g = _groups([label, LINEAR])
        out = _quiet(predict, cut_history(h, g), g, 6, 3.0, PredictorConfig())
        assert out.data.tolist() == [[want], [7.0]]


# Finite values over the whole float range: hypothesis draws the largest
# finite values and subnormals often, so overflows are common.
_finite = st.floats(allow_nan=False, allow_infinity=False)


def _matrices(count):
    return st.tuples(st.integers(1, 4), st.integers(1, 3)).flatmap(
        lambda shape: st.tuples(
            *(hnp.arrays(np.float64, shape, elements=_finite) for _ in range(count))
        )
    )


def _raises_unless_finite(fn, args, want):
    """fn(*args) must raise ParameterError exactly when want is not all
    finite, and otherwise return want's bits."""
    if np.isfinite(want).all():
        assert _quiet(fn, *args).data.tobytes() == want.tobytes()
    else:
        with pytest.raises(ParameterError, match=NON_FINITE):
            _quiet(fn, *args)


class TestGuardsMatchAScan:
    @given(_matrices(2), _finite, _finite)
    @settings(max_examples=300)
    def test_euler_update(self, arrays, t_from, t_to):
        a, b = arrays
        s = t_to - t_from  # past the float range when t_to, t_from are far apart
        with np.errstate(all="ignore"):
            want = s * b + a
        _raises_unless_finite(axpy_rows, (TokenMatrix(a), TokenMatrix(b), s), want)

    @given(_matrices(2), st.lists(_finite, min_size=2, max_size=2, unique=True))
    @settings(max_examples=300)
    def test_velocity(self, arrays, times):
        y_old, y_new = arrays
        t_new, t_old = sorted(times)
        h = push_full(FullHistory(), Timestep(t_old, 0), TokenMatrix(y_old))
        with np.errstate(all="ignore"):
            want = (y_new - y_old) / (t_new - t_old)

        def velocity(h, t, y):
            return push_full(h, t, y).v_latest

        _raises_unless_finite(velocity, (h, Timestep(t_new, 1), TokenMatrix(y_new)), want)

    @given(
        st.data(),
        _matrices(3),
        _finite,
        st.integers(1, 8),
        st.sampled_from(
            [PredictorKind.CHTP, PredictorKind.UNIFORM_LINEAR, PredictorKind.UNIFORM_DAMPED]
        ),
    )
    @settings(max_examples=300)
    def test_forecast(self, data, arrays, horizon, k, kind):
        y, v_latest, v_prev = arrays
        labels = data.draw(
            hnp.arrays(np.int8, y.shape[0], elements=st.sampled_from([STABLE, LINEAR, CHAOTIC]))
        )
        cfg = PredictorConfig(kind=kind)
        alpha = hermite_alpha(k, cfg.n_max)
        with np.errstate(all="ignore"):
            linear = horizon * v_latest + y
            damped = horizon * ((1.0 - alpha) * v_latest + alpha * v_prev) + y
        rows = labels[:, None]
        want = {
            PredictorKind.UNIFORM_LINEAR: linear,
            PredictorKind.UNIFORM_DAMPED: damped,
        }.get(kind, np.where(rows == STABLE, y, np.where(rows == CHAOTIC, damped, linear)))
        g = _groups(labels)
        args = (cut_history(_history(y, v_latest, v_prev), g, kind), g, k, horizon, cfg)
        _raises_unless_finite(predict, args, want)
