import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynal.tdtrack import TDStore


def random_simplex(rng, n, C):
    return rng.dirichlet(np.ones(C), size=n)


def feed(store, row, p):
    store.update_batch([row], np.asarray(p)[None, :])


def mean_of(store, row):
    return store.values([row])[0]


class TestRecord:
    def test_init(self):
        store = TDStore(1, 3)
        np.testing.assert_array_equal(store.mean, np.zeros((1, 3)))
        assert store.count[0] == 0

    def test_value_before_update_is_state_error(self):
        with pytest.raises(RuntimeError):
            TDStore(1, 3).values([0])

    def test_inits_are_independent(self):
        store = TDStore(2, 2)
        feed(store, 0, [1.0, 0.0])
        assert store.count[1] == 0
        np.testing.assert_array_equal(store.mean[1], np.zeros(2))

    def test_two_point_average(self):
        store = TDStore(1, 2)
        feed(store, 0, [1.0, 0.0])
        feed(store, 0, [0.0, 1.0])
        np.testing.assert_allclose(mean_of(store, 0), [0.5, 0.5], atol=1e-15)
        assert store.count[0] == 2

    def test_constant_stream_is_fixed_point(self):
        p = np.array([0.3, 0.2, 0.5])
        store = TDStore(1, 3)
        for _ in range(9):
            feed(store, 0, p)
        np.testing.assert_allclose(mean_of(store, 0), p, atol=1e-13)

    def test_matches_naive_mean(self):
        rng = np.random.default_rng(5)
        vecs = random_simplex(rng, 7, 4)
        store = TDStore(1, 4)
        for v in vecs:
            feed(store, 0, v)
        np.testing.assert_allclose(mean_of(store, 0), vecs.mean(axis=0), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            feed(TDStore(1, 3), 0, [0.5, 0.5])

    def test_single_update_returns_input(self):
        p = np.array([0.25, 0.75])
        store = TDStore(1, 2)
        feed(store, 0, p)
        np.testing.assert_allclose(mean_of(store, 0), p, atol=1e-15)


class TestProperties:
    def test_simplex_closure(self):
        rng = np.random.default_rng(11)
        store = TDStore(1, 5)
        for v in random_simplex(rng, 50, 5):
            feed(store, 0, v)
            val = mean_of(store, 0)
            assert np.all(val >= 0)
            assert abs(val.sum() - 1.0) < 1e-9

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        vecs = random_simplex(rng, 20, 3)
        store = TDStore(2, 3)
        for v in vecs:
            feed(store, 0, v)
        for v in vecs[rng.permutation(20)]:
            feed(store, 1, v)
        np.testing.assert_allclose(mean_of(store, 0), mean_of(store, 1), atol=1e-12)

    def test_count_tracks_updates(self):
        rng = np.random.default_rng(3)
        store = TDStore(1, 2)
        for k, v in enumerate(random_simplex(rng, 100, 2), start=1):
            feed(store, 0, v)
            assert store.count[0] == k

    def test_hundred_updates_match_naive_sum(self):
        rng = np.random.default_rng(9)
        vecs = random_simplex(rng, 100, 6)
        store = TDStore(1, 6)
        for v in vecs:
            feed(store, 0, v)
        naive = vecs.sum(axis=0) / 100.0
        np.testing.assert_allclose(mean_of(store, 0), naive, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(1, 12),
        n_classes=st.integers(2, 6),
        epochs=st.integers(1, 8),
        batch=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_batch_order_matches_naive_mean(self, n_rows, n_classes, epochs, batch, seed):
        # Every epoch feeds each row once, in shuffled batches of distinct rows.
        rng = np.random.default_rng(seed)
        fed = rng.dirichlet(np.ones(n_classes), size=(epochs, n_rows))
        store = TDStore(n_rows, n_classes)
        for e in range(epochs):
            perm = rng.permutation(n_rows)
            for lo in range(0, n_rows, batch):
                rows = perm[lo : lo + batch]
                store.update_batch(rows, fed[e, rows])
        assert np.abs(store.values(np.arange(n_rows)) - fed.mean(axis=0)).max() <= 1e-12
        np.testing.assert_array_equal(store.count, np.full(n_rows, epochs))


class TestStore:
    def test_update_and_values(self):
        store = TDStore(3, 2)
        store.update_batch([0, 2], np.array([[1.0, 0.0], [0.2, 0.8]]))
        store.update_batch([0], np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(store.values([0]), [[0.5, 0.5]])
        np.testing.assert_allclose(store.values([0, 2]), [[0.5, 0.5], [0.2, 0.8]])
        np.testing.assert_array_equal(store.count, [2, 0, 1])

    def test_missing_id(self):
        # a row that was never updated has no dynamics, even next to rows that were
        store = TDStore(2, 2)
        feed(store, 0, [0.5, 0.5])
        with pytest.raises(RuntimeError, match="row 1"):
            store.values([0, 1])

    def test_duplicate_rows_in_one_update_rejected(self):
        store = TDStore(2, 2)
        with pytest.raises(ValueError, match="duplicate"):
            store.update_batch([1, 1], np.full((2, 2), 0.5))
        assert store.count.sum() == 0

    @pytest.mark.parametrize("rows", [[2, 0, 2], [3, 1, 0, 1], [0, 0]])
    def test_duplicates_anywhere_in_the_rows_rejected(self, rows):
        store = TDStore(4, 2)
        with pytest.raises(ValueError, match="duplicate rows in one update"):
            store.update_batch(rows, np.full((len(rows), 2), 0.5))
        assert store.count.sum() == 0 and not store.mean.any()

    def test_update_returns_the_means_it_stored(self):
        store = TDStore(4, 3)
        rng = np.random.default_rng(6)
        for rows in ([2, 0], [0, 3, 2], [1]):
            got = store.update_batch(rows, rng.dirichlet(np.ones(3), size=len(rows)))
            assert got.tobytes() == store.values(rows).tobytes()
            assert not np.shares_memory(got, store.mean)
