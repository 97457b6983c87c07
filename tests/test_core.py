import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from worldcache import DimensionError, ParameterError, Timestep, TokenMatrix
from worldcache.core import axpy_rows


class TestTokenMatrix:
    def test_wraps_2d_as_float64(self):
        m = TokenMatrix([[1, 2], [3, 4]])
        assert m.data.dtype == np.float64
        assert m.shape == (2, 2)
        assert m.n_tokens == 2
        assert m.dims == 2

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            TokenMatrix([1.0, 2.0])
        with pytest.raises(DimensionError):
            TokenMatrix(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            TokenMatrix([[1.0, np.nan]])
        with pytest.raises(ParameterError):
            TokenMatrix([[np.inf, 0.0]])

    def test_is_immutable(self):
        m = TokenMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.data[0, 0] = 9.0

    def test_equality_is_bitwise(self):
        a = TokenMatrix([[1.0, 2.0]])
        b = TokenMatrix([[1.0, 2.0]])
        c = TokenMatrix([[1.0, 2.0 + 1e-16]])
        assert a == b
        assert a == c  # 2.0 + 1e-16 rounds to 2.0 in float64
        assert a != TokenMatrix([[1.0, 2.5]])

    def test_does_not_alias_source_array(self):
        src = np.array([[1.0, 2.0]])
        m = TokenMatrix(src)
        src[0, 0] = 9.0
        assert m.data[0, 0] == 1.0

    def test_adopt_freezes_the_array_without_a_copy(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = TokenMatrix.adopt(arr)
        assert m.data is arr
        assert not arr.flags.writeable
        assert m == TokenMatrix([[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "arr, error",
        [
            (np.ones((2, 3), dtype=np.float32), ParameterError),
            (np.ones((3, 2)).T, ParameterError),
            (np.ones((4, 4))[:, ::2], ParameterError),
            (np.ones(3), DimensionError),
            (np.ones((2, 2, 2)), DimensionError),
            (np.array([[1.0, np.nan]]), ParameterError),
            (np.array([[np.inf, 0.0]]), ParameterError),
        ],
        ids=["float32", "fortran", "strided", "1-d", "3-d", "nan", "inf"],
    )
    def test_adopt_rejects_what_it_cannot_take_as_is(self, arr, error):
        with pytest.raises(error):
            TokenMatrix.adopt(arr)
        assert arr.flags.writeable


class TestTimestep:
    def test_holds_index_and_value(self):
        t = Timestep(index=3, value=47.0)
        assert t.index == 3
        assert t.value == 47.0

    def test_rejects_negative_index(self):
        with pytest.raises(ParameterError):
            Timestep(index=-1, value=1.0)

    def test_rejects_non_finite_value(self):
        with pytest.raises(ParameterError):
            Timestep(index=0, value=float("nan"))


class TestAxpyRows:
    def test_scale_zero_returns_first(self):
        out = axpy_rows(TokenMatrix([[1.0, 1.0]]), TokenMatrix([[2.0, 2.0]]), 0.0)
        assert out.data.tolist() == [[1.0, 1.0]]

    def test_scale_three(self):
        out = axpy_rows(TokenMatrix([[0.0, 0.0]]), TokenMatrix([[1.0, 2.0]]), 3.0)
        assert out.data.tolist() == [[3.0, 6.0]]

    def test_negative_scale(self):
        out = axpy_rows(TokenMatrix([[1.0, 2.0]]), TokenMatrix([[3.0, 4.0]]), -1.0)
        assert out.data.tolist() == [[-2.0, -2.0]]

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            axpy_rows(TokenMatrix([[1.0]]), TokenMatrix([[1.0, 2.0]]), 1.0)

    @given(
        st.floats(-100, 100),
        hnp.arrays(np.float64, (3, 4), elements=st.floats(-1e3, 1e3)),
        hnp.arrays(np.float64, (3, 4), elements=st.floats(-1e3, 1e3)),
    )
    def test_matches_dense_arithmetic(self, s, a, b):
        out = axpy_rows(TokenMatrix(a), TokenMatrix(b), s)
        assert np.array_equal(out.data, a + s * b)
