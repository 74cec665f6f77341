import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dynal.numutil import PROB_FLOOR, kl_rows, softmax_and_log_softmax, stable_softmax, write_csv


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


def logit_rows(bound):
    shape = st.tuples(st.integers(1, 5), st.integers(1, 6))
    return shape.flatmap(lambda s: arrays(np.float64, s, elements=st.floats(-bound, bound)))


@settings(deadline=None)
@given(logit_rows(1e3), st.floats(-1e3, 1e3))
def test_softmax_family_is_shift_invariant(z, c):
    # z + c rounds each entry by at most half an ulp of 2e3 (about 1e-13).
    np.testing.assert_allclose(stable_softmax(z + c, axis=1), stable_softmax(z, axis=1),
                               rtol=0, atol=1e-11)
    np.testing.assert_allclose(softmax_and_log_softmax(z + c, axis=1)[1],
                               softmax_and_log_softmax(z, axis=1)[1], rtol=0, atol=1e-11)


@settings(deadline=None)
@given(logit_rows(1e300))
def test_softmax_family_finite_at_extreme_logits(z):
    p, lp = softmax_and_log_softmax(z, axis=1)
    assert p.tobytes() == stable_softmax(z, axis=1).tobytes()
    assert np.all(np.isfinite(p)) and np.all((p >= 0) & (p <= 1))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(np.isfinite(lp)) and np.all(lp <= 0)
    np.testing.assert_allclose(np.exp(lp), p, rtol=0, atol=1e-12)


def test_write_csv_cell_rule(tmp_path):
    """Floats as their repr, bools as 0/1, ints and strings as they are."""
    path = tmp_path / "cells.csv"
    rows = [(1 / 3, True, 3, "x", 1e-300), [2.0, False, -7, "y,z", float("nan")]]
    write_csv(path, ["f", "b", "i", "s", "g"], rows)
    assert path.read_bytes() == (
        b"f,b,i,s,g\r\n0.3333333333333333,1,3,x,1e-300\r\n2.0,0,-7,\"y,z\",nan\r\n"
    )


def test_write_csv_makes_missing_directories(tmp_path):
    """A write below missing directories makes them, and writes the bytes
    of a write into an existing directory."""
    header, rows = ["f", "b", "s"], [(0.1, True, "x"), (2.0, False, "y,z")]
    write_csv(tmp_path / "x.csv", header, rows)
    nested = tmp_path / "a" / "b" / "x.csv"
    write_csv(nested, header, rows)
    assert (tmp_path / "a").is_dir() and (tmp_path / "a" / "b").is_dir()
    assert nested.read_bytes() == (tmp_path / "x.csv").read_bytes()


def test_write_csv_writers_racing_to_make_one_directory_all_write(tmp_path):
    """Writers that start together below the same missing directories, as
    al-run's worker processes do, each make them or find them made."""
    n, rounds = 8, 100
    barrier = threading.Barrier(n, timeout=30)

    def write(i):
        for r in range(rounds):
            barrier.wait()
            try:
                write_csv(tmp_path / str(r) / "a" / "b" / f"x{i}.csv", ["i"], [(i,)])
            except BaseException:
                barrier.abort()  # the others stop waiting for this writer
                raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(n) as pool:
            for fut in [pool.submit(write, i) for i in range(n)]:
                fut.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    for r in range(rounds):
        d = tmp_path / str(r) / "a" / "b"
        assert sorted(p.name for p in d.iterdir()) == sorted(f"x{i}.csv" for i in range(n))
        for i in range(n):
            assert (d / f"x{i}.csv").read_bytes() == f"i\r\n{i}\r\n".encode()
