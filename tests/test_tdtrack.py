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


class TestRowsOutside:
    def test_negative_row_does_not_alias_the_last(self):
        # -1 would name row 2 of three and fold into it twice in one update
        store = TDStore(3, 2)
        with pytest.raises(ValueError, match="row -1 outside"):
            store.update_batch([2, -1], np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert store.count.sum() == 0 and not store.mean.any()
        feed(store, 2, [1.0, 0.0])
        with pytest.raises(ValueError, match="row -1 outside"):
            store.values([-1])

    @pytest.mark.parametrize("rows, bad", [([3], 3), ([0, 7], 7), ([-3, 1], -3)])
    def test_index_rows_outside_are_named(self, rows, bad):
        store = TDStore(3, 2)
        with pytest.raises(ValueError, match=f"row {bad} outside"):
            store.update_batch(rows, np.full((len(rows), 2), 0.5))
        assert store.count.sum() == 0
        with pytest.raises(ValueError, match=f"row {bad} outside"):
            store.values(rows)

    @pytest.mark.parametrize("rows, bad", [(range(2, 4), 3), (range(-1, 1), -1),
                                           (range(5, 6), 5), (range(-2, -1), -2)])
    def test_ranges_outside_are_named(self, rows, bad):
        store = TDStore(3, 2)
        with pytest.raises(ValueError, match=f"row {bad} outside"):
            store.update_batch(rows, np.full((len(rows), 2), 0.5))
        assert store.count.sum() == 0 and not store.mean.any()

    def test_range_with_a_step_is_rejected(self):
        with pytest.raises(ValueError, match="step 1"):
            TDStore(4, 2).update_batch(range(0, 4, 2), np.full((2, 2), 0.5))


class TestRowsNotIntegers:
    # Cast to indices, 2.5 would name row 2, 0.7 row 0 and True row 1.
    @pytest.mark.parametrize("rows, bad", [([2.5], "2.5"), ([1, 0.5], "1.0"),
                                           (np.array([True, False]), "True")])
    def test_index_rows_are_rejected_and_named(self, rows, bad):
        store = TDStore(3, 2)
        with pytest.raises(ValueError, match=f"row {bad} is not an integer"):
            store.update_batch(rows, np.full((len(rows), 2), 0.5))
        assert store.count.sum() == 0 and not store.mean.any()

    @pytest.mark.parametrize("rows, bad", [([0.7], "0.7"), (np.array([False]), "False")])
    def test_values_rejects_them(self, rows, bad):
        store = TDStore(3, 2)
        store.update_batch([0, 1, 2], np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match=f"row {bad} is not an integer"):
            store.values(rows)

    @pytest.mark.parametrize("perm, bad", [([2.5, 0, 1], "2.5"), ([2.0, 0.0, 1.0], "2.0"),
                                           (np.array([True, False, True]), "True")])
    def test_an_epoch_rejects_them_before_it_opens(self, perm, bad):
        store = TDStore(3, 2)
        feed(store, 1, [0.25, 0.75])
        with pytest.raises(ValueError, match=f"row {bad} is not an integer"):
            with store.epoch(perm):
                pytest.fail("the epoch opened")
        with store.epoch([2, 0, 1]):
            np.testing.assert_array_equal(store.count, [0, 0, 1])

    def test_integer_rows_of_any_width_and_empty_rows_pass(self):
        store = TDStore(3, 2)
        store.update_batch(np.array([2, 0], dtype=np.uint8), np.full((2, 2), 0.5))
        store.update_batch(np.array([1], dtype=np.int32), np.full((1, 2), 0.5))
        assert store.values([]).shape == (0, 2)
        np.testing.assert_array_equal(store.values(np.array([0, 1, 2], dtype=np.int16)),
                                      np.full((3, 2), 0.5))


def fold_epochs(store, fed, perms, batch, as_ranges):
    """Feed ``fed[e]`` (*runs, n, C) over ``perms[e]`` in batches: as ranges
    of the store's epoch order, or as index rows with no epoch."""
    n = store.count.size
    for probs, perm in zip(fed, perms):
        if as_ranges:
            with store.epoch(perm):
                for lo in range(0, n, batch):
                    rows = range(lo, min(lo + batch, n))
                    store.update_batch(rows, probs[..., perm[lo : lo + batch], :])
        else:
            for lo in range(0, n, batch):
                rows = perm[lo : lo + batch]
                store.update_batch(rows, probs[..., rows, :])


class TestEpoch:
    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(1, 12),
        n_classes=st.integers(2, 5),
        runs=st.sampled_from([(), (1,), (3,)]),
        epochs=st.integers(1, 6),
        batch=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_range_folds_equal_index_folds(self, n_rows, n_classes, runs, epochs, batch, seed):
        rng = np.random.default_rng(seed)
        fed = rng.dirichlet(np.ones(n_classes), size=(epochs, *runs, n_rows))
        perms = [rng.permutation(n_rows) for _ in range(epochs)]
        got, want = TDStore(n_rows, n_classes, runs), TDStore(n_rows, n_classes, runs)
        fold_epochs(got, fed, perms, batch, as_ranges=True)
        fold_epochs(want, fed, perms, batch, as_ranges=False)
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.count.tobytes() == want.count.tobytes()

    @pytest.mark.parametrize("perm", [[0, 0, 2], [0, 1], [0, 1, 2, 3], [1, 2, 3], [-1, 0, 1],
                                      [[0, 1, 2]], [2.5, 0, 1]])
    def test_a_non_permutation_is_rejected_at_epoch_start(self, perm):
        store = TDStore(3, 2)
        feed(store, 1, [0.25, 0.75])
        mean, count = store.mean.copy(), store.count.copy()
        # a float order is no order of rows: cast to indices it would be [2, 0, 1]
        match = "row 2.5 is not an integer" if perm == [2.5, 0, 1] else "not a permutation"
        with pytest.raises(ValueError, match=match):
            with store.epoch(perm):
                pytest.fail("the epoch opened")
        assert store.mean.tobytes() == mean.tobytes() and store.count.tobytes() == count.tobytes()
        with store.epoch([2, 0, 1]):  # still closed: a permutation opens an epoch
            pass

    def test_epochs_do_not_nest(self):
        store = TDStore(2, 2)
        with store.epoch([1, 0]):
            with pytest.raises(RuntimeError, match="already open"):
                with store.epoch([0, 1]):
                    pass

    def test_reads_are_in_dataset_order_during_and_after_an_epoch(self):
        rng = np.random.default_rng(4)
        n, C = 5, 3
        first, second = rng.dirichlet(np.ones(C), size=(2, 2, n))
        store = TDStore(n, C, (2,))
        store.update_batch(np.arange(n), first)
        perm = np.array([3, 0, 4, 1, 2])
        with store.epoch(perm):
            # positions 0 and 1 of the epoch: rows 3 and 0
            store.update_batch(range(0, 2), second[:, perm[:2]])
            want = first.copy()
            want[:, perm[:2]] += (second[:, perm[:2]] - first[:, perm[:2]]) / 2
            want_count = np.array([2, 1, 1, 2, 1])
            assert store.values([0, 3, 1]).tobytes() == want[:, [0, 3, 1]].tobytes()
            mean, count = store.by_row()
            assert mean.tobytes() == want.tobytes() and count.tobytes() == want_count.tobytes()
            run1, run1_mean = store.run(1), want[1].copy()
            assert run1.mean.tobytes() == run1_mean.tobytes()
            assert run1.values([2, 0]).tobytes() == want[1, [2, 0]].tobytes()
            # an index fold inside the epoch names dataset rows
            store.update_batch([1], second[:, [1]])
            want[:, 1] += (second[:, 1] - first[:, 1]) / 2
            want_count[1] = 2
        assert store.mean.tobytes() == want.tobytes()
        assert store.count.tobytes() == want_count.tobytes()
        assert store.values(np.arange(n)).tobytes() == want.tobytes()
        assert store.run(0).mean.tobytes() == want[0].tobytes()
        assert np.shares_memory(store.run(0).mean, store.mean)
        # a run taken inside the epoch is a copy: the later fold of row 1 missed it
        assert run1.mean.tobytes() == run1_mean.tobytes() != store.mean[1].tobytes()

    def test_an_epoch_ended_by_an_error_is_back_in_dataset_order(self):
        store = TDStore(3, 2)
        with pytest.raises(ZeroDivisionError):
            with store.epoch([2, 0, 1]):
                store.update_batch(range(0, 1), np.array([[1.0, 0.0]]))
                1 / 0
        np.testing.assert_array_equal(store.count, [0, 0, 1])
        assert store.values([2]).tolist() == [[1.0, 0.0]]
        np.testing.assert_array_equal(store.by_row()[0], store.mean)

    def test_a_range_fold_returns_the_store_s_means_as_a_view(self):
        store = TDStore(4, 2)
        with store.epoch([3, 2, 1, 0]):
            got = store.update_batch(range(1, 3), np.array([[0.5, 0.5], [0.25, 0.75]]))
            assert np.shares_memory(got, store.mean)
        assert got.tolist() == store.values([2, 1]).tolist()
