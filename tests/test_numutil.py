import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dynal.numutil import PROB_FLOOR, kl_rows


@st.composite
def prob_rows(draw, shape):
    """(n, C) rows on the simplex, exact zeros included."""
    w = draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
    w = w + (w.sum(axis=1, keepdims=True) == 0)
    return w / w.sum(axis=1, keepdims=True)


@st.composite
def row_pairs(draw):
    shape = (draw(st.integers(1, 6)), draw(st.integers(2, 6)))
    return draw(prob_rows(shape)), draw(prob_rows(shape))


@settings(deadline=None)
@given(row_pairs())
def test_nonnegative_and_zero_at_equality(pair):
    q, p = pair
    # Flooring p inside the log can lower a row by at most PROB_FLOOR / e per entry.
    assert np.all(kl_rows(q, p) >= -q.shape[1] * PROB_FLOOR)
    np.testing.assert_array_equal(kl_rows(q, q), 0.0)


@settings(deadline=None)
@given(row_pairs())
def test_batch_equals_row_by_row(pair):
    q, p = pair
    np.testing.assert_array_equal(kl_rows(q, p), [kl_rows(qi, pi) for qi, pi in zip(q, p)])


@settings(deadline=None)
@given(row_pairs())
def test_batch_mean_equals_mean_of_singles(pair):
    q, p = pair
    singles = [kl_rows(q[i : i + 1], p[i : i + 1]).mean() for i in range(len(q))]
    assert kl_rows(q, p).mean() == pytest.approx(np.mean(singles), abs=1e-12)
