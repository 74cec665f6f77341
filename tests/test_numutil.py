import csv
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dynal import numutil
from dynal.numutil import PROB_FLOOR, kl_rows, stable_softmax, sum_first, write_csv
from test_in_place import ref_softmax_and_log_softmax


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
    np.testing.assert_allclose(ref_softmax_and_log_softmax(z + c, axis=1)[1],
                               ref_softmax_and_log_softmax(z, axis=1)[1], rtol=0, atol=1e-11)


@settings(deadline=None)
@given(logit_rows(1e300))
def test_softmax_family_finite_at_extreme_logits(z):
    p, lp = ref_softmax_and_log_softmax(z, axis=1)
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


# --- write_csv against the csv.writer form it replaced ---------------------------------------


def ref_write_csv(path, header, rows) -> None:
    """``write_csv`` as it was when every cell went through ``csv.writer``: verbatim."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(
            [repr(v) if type(v) is float else int(v) if type(v) is bool else str(v) for v in row]
            for row in rows
        )


# Strings that csv quotes (a comma, a quote, CR, LF; an empty string when it is a row's only
# cell) and strings it leaves alone.
csv_text = st.text(alphabet=[",", '"', "\r", "\n", "a", " ", "é", "1"], max_size=4)
csv_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 1e-300, 1 / 3]),
    st.booleans(), st.integers(-10**20, 10**20), st.none(), csv_text,
    st.sampled_from([np.float64(0.1), np.int64(-3), np.bool_(True), np.str_("x,y"), np.str_("")]),
)


@st.composite
def csv_tables(draw):
    """A header and rows of its length; each column draws its cells from one
    kind (floats, ints, bools, strings, or any cell), so that both the
    columns written as they are and the ones converted cell by cell occur."""
    n = draw(st.integers(0, 4))
    kinds = [st.floats(), st.integers(-5, 5), st.booleans(), csv_text, csv_cells]
    columns = [draw(st.sampled_from(kinds)) for _ in range(n)]
    rows = draw(st.lists(st.tuples(*columns) if n else st.just(()), max_size=7))
    return draw(st.lists(csv_cells, min_size=n, max_size=n)), rows


@settings(deadline=None, max_examples=300)
@given(csv_tables(), st.sampled_from([1, 2, 3, numutil.CSV_BLOCK_ROWS]))
@example(([""], [("",), ("x",)]), 1)  # an empty string alone in a row is quoted
@example((["a", ""], [("", ""), (True, "y,z")]), 1)
def test_write_csv_matches_the_csv_writer_reference(tmp_path_factory, table, block_rows):
    header, rows = table
    d = tmp_path_factory.mktemp("csv")
    old = numutil.CSV_BLOCK_ROWS
    numutil.CSV_BLOCK_ROWS = block_rows  # rows that span several blocks of the writer
    try:
        write_csv(d / "got.csv", header, [list(r) for r in rows])
    finally:
        numutil.CSV_BLOCK_ROWS = old
    ref_write_csv(d / "want.csv", header, rows)
    assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()


def test_write_csv_matches_the_reference_on_artifact_sized_tables(tmp_path):
    """A trajectory's 5001 rows of floats and a score dump's mixed columns,
    with 0/1 selections as ints and as bools, over several blocks."""
    rng = np.random.default_rng(0)
    traj = rng.normal(size=(5001, 4)) * rng.choice([1.0, 1e-300, 1e300], size=(5001, 4))
    traj[::97] = [np.nan, np.inf, -np.inf, -0.0]
    tables = [
        (["step", "a", "b", "c", "gap"], [(k, *r) for k, r in enumerate(traj.tolist())]),
        (["sample_id", "strategy", "score", "predicted_label", "selected"],
         [(i, "tidal_entropy", s, i % 8, sel) for i, s, sel in
          zip(range(3300), rng.normal(size=3300).tolist(), [0, 1, True, False] * 825)]),
    ]
    for header, rows in tables:
        write_csv(tmp_path / "got.csv", header, rows)
        ref_write_csv(tmp_path / "want.csv", header, rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("rows", [[(1, 2.0), (3,)], [(1, 2.0), (3, 4.0, 5)], [()]])
def test_write_csv_row_of_another_length_raises_before_any_write(tmp_path, rows):
    path = tmp_path / "a" / "x.csv"
    with pytest.raises(ValueError, match=f"row {len(rows) - 1} has {len(rows[-1])} cells, "
                                         "the header 2$"):
        write_csv(path, ["i", "f"], rows)
    assert not (tmp_path / "a").exists()


# --- sum_first against numpy's own reduce ----------------------------------------------------


def column_sums(a):
    """Each column's ``ndarray.sum``: numpy's reduce along one strided axis."""
    return np.moveaxis(a, 0, -1).copy().sum(axis=-1)


@pytest.mark.parametrize("n", [*range(0, 301), 511, 1025, 4097])
def test_sum_first_has_the_bits_of_numpys_reduce(n):
    # magnitudes 16 decades apart make every reordering of the adds show
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, 3, 5)) * rng.choice([1.0, 1e16], size=(n, 3, 5))
    got = sum_first(a)
    assert got.shape == (3, 5) and got.tobytes() == column_sums(a).tobytes()
    # and on a strided view, the layout record() sums
    b = np.moveaxis(rng.normal(size=(4, 6, n + 2))[:, :, 1 : n + 1], 2, 0)
    assert sum_first(b).tobytes() == column_sums(b).tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 129, 300])
def test_sum_first_keeps_numpys_signed_zeros_and_non_finite_sums(n):
    """Signed zeros and infinities keep their bits, and NaN sums stay NaN.
    A NaN's sign is not compared: inf + -inf makes a NaN of the sign bit
    set, and of two NaN operands an add returns the one that the compiled
    instruction takes first, which numpy's loops do not fix."""
    rng = np.random.default_rng(n)
    cases = [np.full((n, 2), -0.0), np.zeros((n, 2)),
             rng.choice([-0.0, 0.0], size=(n, 7)),
             rng.choice([-0.0, 0.0, 1.0, -1.0, np.inf, -np.inf, np.nan], size=(n, 40)),
             rng.choice([1e308, -1e308, 1.0], size=(n, 40))]
    with np.errstate(invalid="ignore", over="ignore"):
        for a in cases:
            got, want = sum_first(a), column_sums(a)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()
