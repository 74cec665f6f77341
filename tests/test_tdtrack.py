import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynal.tdtrack import TDStore

from test_in_place import ref_update_batch


def random_simplex(rng, n, C):
    return rng.dirichlet(np.ones(C), size=n)


def feed(store, probs):
    """One epoch in dataset order that folds ``probs`` (*runs, n, C), a
    vector for every row, as one range."""
    rows = range(store.mean.shape[-2])
    with store.epoch(rows):
        store.update_batch(rows, probs)


def feed_row(store, p):
    """One epoch of a one-row store that folds the vector ``p``."""
    feed(store, np.asarray(p)[None, :])


def mean_of(store, row):
    return store.values([row])[0]


class TestRecord:
    def test_init(self):
        store = TDStore(1, 3)
        np.testing.assert_array_equal(store.mean, np.zeros((1, 3)))
        assert store.epochs == 0

    def test_value_before_update_is_state_error(self):
        with pytest.raises(RuntimeError):
            TDStore(1, 3).values([0])

    def test_inits_are_independent(self):
        store = TDStore(2, 2)
        feed(store, [[1.0, 0.0], [0.25, 0.75]])
        assert mean_of(store, 1).tolist() == [0.25, 0.75]
        assert mean_of(store, 0).tolist() == [1.0, 0.0]

    def test_two_point_average(self):
        store = TDStore(1, 2)
        feed_row(store, [1.0, 0.0])
        feed_row(store, [0.0, 1.0])
        np.testing.assert_allclose(mean_of(store, 0), [0.5, 0.5], atol=1e-15)
        assert store.epochs == 2

    def test_constant_stream_is_fixed_point(self):
        p = np.array([0.3, 0.2, 0.5])
        store = TDStore(1, 3)
        for _ in range(9):
            feed_row(store, p)
        np.testing.assert_allclose(mean_of(store, 0), p, atol=1e-13)

    def test_matches_naive_mean(self):
        rng = np.random.default_rng(5)
        vecs = random_simplex(rng, 7, 4)
        store = TDStore(1, 4)
        for v in vecs:
            feed_row(store, v)
        np.testing.assert_allclose(mean_of(store, 0), vecs.mean(axis=0), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="probs shape"):
            feed_row(TDStore(1, 3), [0.5, 0.5])

    def test_single_update_returns_input(self):
        p = np.array([0.25, 0.75])
        store = TDStore(1, 2)
        feed_row(store, p)
        np.testing.assert_allclose(mean_of(store, 0), p, atol=1e-15)


class TestProperties:
    def test_simplex_closure(self):
        rng = np.random.default_rng(11)
        store = TDStore(1, 5)
        for v in random_simplex(rng, 50, 5):
            feed_row(store, v)
            val = mean_of(store, 0)
            assert np.all(val >= 0)
            assert abs(val.sum() - 1.0) < 1e-9

    def test_order_invariance(self):
        # row 1 is fed row 0's vectors in another order
        rng = np.random.default_rng(2)
        vecs = random_simplex(rng, 20, 3)
        store = TDStore(2, 3)
        for v, w in zip(vecs, vecs[rng.permutation(20)]):
            feed(store, [v, w])
        np.testing.assert_allclose(mean_of(store, 0), mean_of(store, 1), atol=1e-12)

    def test_count_tracks_updates(self):
        rng = np.random.default_rng(3)
        store = TDStore(1, 2)
        for k, v in enumerate(random_simplex(rng, 100, 2), start=1):
            feed_row(store, v)
            assert store.epochs == k

    def test_hundred_updates_match_naive_sum(self):
        rng = np.random.default_rng(9)
        vecs = random_simplex(rng, 100, 6)
        store = TDStore(1, 6)
        for v in vecs:
            feed_row(store, v)
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
        # Every epoch feeds each row once, in batches of a shuffled order.
        rng = np.random.default_rng(seed)
        fed = rng.dirichlet(np.ones(n_classes), size=(epochs, n_rows))
        store = TDStore(n_rows, n_classes)
        fold_epochs(store, fed, [rng.permutation(n_rows) for _ in range(epochs)], batch)
        assert np.abs(store.values(np.arange(n_rows)) - fed.mean(axis=0)).max() <= 1e-12
        assert store.epochs == epochs


class TestStore:
    def test_update_and_values(self):
        store = TDStore(3, 2)
        with store.epoch([2, 0, 1]):
            store.update_batch(range(0, 2), np.array([[0.2, 0.8], [1.0, 0.0]]))
            store.update_batch(range(2, 3), np.array([[0.5, 0.5]]))
        feed(store, [[0.0, 1.0], [0.5, 0.5], [0.2, 0.8]])
        np.testing.assert_allclose(store.values([0]), [[0.5, 0.5]])
        np.testing.assert_allclose(store.values([0, 2]), [[0.5, 0.5], [0.2, 0.8]])
        assert store.epochs == 2

    def test_values_before_the_first_epoch_raise(self):
        # no rows are no exception: a store holds no means before its first epoch
        with pytest.raises(RuntimeError, match="before its first epoch"):
            TDStore(3, 2).values([])

    def test_folds_the_next_range_of_an_open_epoch_only(self):
        store = TDStore(2, 2)
        with pytest.raises(RuntimeError, match="no epoch is open"):
            store.update_batch(range(0, 2), np.full((2, 2), 0.5))
        assert not store.mean.any()
        feed(store, np.full((2, 2), 0.5))
        with pytest.raises(RuntimeError, match="no epoch is open"):
            store.update_batch(range(0, 2), np.full((2, 2), 0.5))
        assert store.epochs == 1

    def test_missing_id(self):
        # a row that was never folded has no dynamics, even next to rows that were: the
        # epoch that leaves it out raises, and the store then reads no row
        store = TDStore(2, 2)
        with pytest.raises(RuntimeError, match="ended after 1 of the store's 2 rows"):
            with store.epoch([0, 1]):
                store.update_batch(range(0, 1), np.array([[0.5, 0.5]]))
        with pytest.raises(RuntimeError, match="ended by an error"):
            store.values([0, 1])

    def test_duplicate_rows_in_one_update_rejected(self):
        store = TDStore(2, 2)
        with pytest.raises(ValueError, match="not the epoch's next range"):
            with store.epoch([0, 1]):
                store.update_batch([1, 1], np.full((2, 2), 0.5))
        assert store.epochs == 0 and not store.mean.any()

    @pytest.mark.parametrize("rows", [[2, 0, 2], [3, 1, 0, 1], [0, 0]])
    def test_duplicates_anywhere_in_the_rows_rejected(self, rows):
        # neither an epoch's order nor a fold's rows may name a row twice
        store = TDStore(4, 2)
        with pytest.raises(ValueError, match="not a permutation"):
            with store.epoch(rows):
                pytest.fail("the epoch opened")
        with pytest.raises(ValueError, match="not the epoch's next range"):
            with store.epoch([3, 2, 1, 0]):
                store.update_batch(rows, np.full((len(rows), 2), 0.5))
        assert store.epochs == 0 and not store.mean.any()

    def test_update_returns_the_means_it_stored(self):
        store = TDStore(4, 3)
        rng = np.random.default_rng(6)
        perm = [2, 0, 3, 1]
        with store.epoch(perm):
            got = [store.update_batch(rows, rng.dirichlet(np.ones(3), size=len(rows)))
                   for rows in (range(0, 2), range(2, 3), range(3, 4))]
            # each a view of the store's means, in the epoch's order
            assert all(np.shares_memory(m, store.mean) for m in got)
        assert np.concatenate(got).tobytes() == store.values(perm).tobytes()


class TestFoldsOutOfTurn:
    @pytest.mark.parametrize("folds", [
        [range(0, 2), range(4, 6)],  # skips a batch
        [range(0, 2), range(0, 2)],  # repeats one
        [range(2, 4), range(0, 2)],  # reorders them
        [range(0, 3), range(2, 4)],  # overlaps the last
        [range(0, 4), range(4, 7)],  # runs past the end
        [range(-1, 1)],
        [range(0, 6, 2)],
        [range(0, 2), range(2, 1)],  # ends before it starts
        [[0, 1]],  # index rows
        [np.arange(2)],
    ])
    def test_a_fold_that_is_not_the_next_range_raises(self, folds):
        store = TDStore(6, 2)
        probs = np.full((6, 2), 0.5)
        *fine, bad = folds
        with pytest.raises(ValueError, match="not the epoch's next range"):
            with store.epoch([5, 3, 1, 0, 2, 4]):
                for rows in fine:
                    store.update_batch(rows, probs[: len(rows)])
                store.update_batch(bad, probs[: len(bad)])
                pytest.fail("the fold went through")

    def test_empty_ranges_fold_nothing(self):
        store = TDStore(3, 2)
        with store.epoch([1, 2, 0]):
            store.update_batch(range(0, 0), np.zeros((0, 2)))
            store.update_batch(range(0, 3), np.full((3, 2), 0.5))
            store.update_batch(range(3, 3), np.zeros((0, 2)))
        assert store.values([0, 1, 2]).tolist() == [[0.5, 0.5]] * 3

    @pytest.mark.parametrize("folds, done", [([], 0), ([range(0, 2)], 2)])
    def test_an_epoch_that_ends_short_raises(self, folds, done):
        store = TDStore(3, 2)
        with pytest.raises(RuntimeError, match=f"ended after {done} of the store's 3 rows"):
            with store.epoch([2, 0, 1]):
                for rows in folds:
                    store.update_batch(rows, np.full((len(rows), 2), 0.5))
        assert store.epochs == 0

    @pytest.mark.parametrize("ending", ["error", "short"])
    def test_after_an_epoch_that_raised_the_store_refuses_every_call(self, ending):
        store = TDStore(3, 2, (2,))
        feed(store, np.full((2, 3, 2), 0.5))
        with pytest.raises(ZeroDivisionError if ending == "error" else RuntimeError):
            with store.epoch([2, 0, 1]):
                store.update_batch(range(0, 1), np.full((2, 1, 2), 0.25))
                if ending == "error":
                    1 / 0
        lost = "an epoch of this store ended by an error"
        with pytest.raises(RuntimeError, match=lost):
            store.values([0])
        with pytest.raises(RuntimeError, match=lost):
            with store.epoch([0, 1, 2]):
                pytest.fail("the epoch opened")
        with pytest.raises(RuntimeError, match=lost):
            store.update_batch(range(1, 3), np.full((2, 2, 2), 0.5))


class TestRowsOutside:
    def test_negative_row_does_not_alias_the_last(self):
        # -1 would name row 2 of three and make [0, 1, -1] a permutation
        store = TDStore(3, 2)
        with pytest.raises(ValueError, match="not a permutation"):
            with store.epoch([0, 1, -1]):
                pytest.fail("the epoch opened")
        assert store.epochs == 0 and not store.mean.any()
        feed(store, [[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
        with pytest.raises(ValueError, match="row -1 outside"):
            store.values([-1])

    @pytest.mark.parametrize("rows, bad", [([3], 3), ([0, 7], 7), ([-3, 1], -3), ([2, -1], -1)])
    def test_index_rows_outside_are_named(self, rows, bad):
        # -1 would name row 2 of three
        store = TDStore(3, 2)
        feed(store, np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match=f"row {bad} outside"):
            store.values(rows)

    @pytest.mark.parametrize("rows", [range(2, 4), range(-1, 1), range(5, 6), range(-2, -1),
                                      range(0, 4)])
    def test_ranges_outside_are_named(self, rows):
        store = TDStore(3, 2)
        with pytest.raises(ValueError, match=re.escape(f"rows {rows!r} are not the epoch's next "
                                                       "range, from 0 to <= 3")):
            with store.epoch([0, 1, 2]):
                store.update_batch(rows, np.full((len(rows), 2), 0.5))
        assert not store.mean.any()

    def test_range_with_a_step_is_rejected(self):
        store = TDStore(4, 2)
        with pytest.raises(ValueError, match="next range"):
            with store.epoch(range(4)):
                store.update_batch(range(0, 4, 2), np.full((2, 2), 0.5))


class TestRowsNotIntegers:
    # Cast to indices, 2.5 would name row 2, 0.5 row 0 and True row 1.
    @pytest.mark.parametrize("rows, bad", [([2.5], "2.5"), ([1, 0.5], "1.0"),
                                           (np.array([True, False]), "True")])
    def test_index_rows_are_rejected_and_named(self, rows, bad):
        # no fold takes them, and a read names the first
        store = TDStore(3, 2)
        feed(store, np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match=f"row {bad} is not an integer"):
            store.values(rows)
        with pytest.raises(ValueError, match="not the epoch's next range"):
            with store.epoch([2, 0, 1]):
                store.update_batch(rows, np.full((len(rows), 2), 0.25))
        assert store.epochs == 1 and (store.mean == 0.5).all()

    @pytest.mark.parametrize("rows, bad", [([0.7], "0.7"), (np.array([False]), "False")])
    def test_values_rejects_them(self, rows, bad):
        store = TDStore(3, 2)
        feed(store, np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match=f"row {bad} is not an integer"):
            store.values(rows)

    @pytest.mark.parametrize("perm, bad", [([2.5, 0, 1], "2.5"), ([2.0, 0.0, 1.0], "2.0"),
                                           (np.array([True, False, True]), "True")])
    def test_an_epoch_rejects_them_before_it_opens(self, perm, bad):
        store = TDStore(3, 2)
        feed(store, [[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
        mean = store.mean.copy()
        with pytest.raises(ValueError, match=f"row {bad} is not an integer"):
            with store.epoch(perm):
                pytest.fail("the epoch opened")
        assert store.mean.tobytes() == mean.tobytes() and store.epochs == 1
        feed(store, [[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])

    def test_integer_rows_of_any_width_and_empty_rows_pass(self):
        store = TDStore(3, 2)
        with store.epoch(np.array([2, 0, 1], dtype=np.uint8)):
            store.update_batch(range(0, 3), np.full((3, 2), 0.5))
        assert store.values([]).shape == (0, 2)
        np.testing.assert_array_equal(store.values(np.array([0, 1, 2], dtype=np.int16)),
                                      np.full((3, 2), 0.5))


def fold_epochs(store, fed, perms, batch):
    """Feed ``fed[e]`` (*runs, n, C) over ``perms[e]`` in batches, each a
    range of the store's epoch order."""
    n = store.mean.shape[-2]
    for probs, perm in zip(fed, perms):
        with store.epoch(perm):
            for lo in range(0, n, batch):
                rows = range(lo, min(lo + batch, n))
                store.update_batch(rows, probs[..., perm[lo : lo + batch], :])


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
        # the reference folds each batch's dataset rows into per-row counts
        rng = np.random.default_rng(seed)
        fed = rng.dirichlet(np.ones(n_classes), size=(epochs, *runs, n_rows))
        perms = [rng.permutation(n_rows) for _ in range(epochs)]
        store = TDStore(n_rows, n_classes, runs)
        fold_epochs(store, fed, perms, batch)
        mean, count = np.zeros((*runs, n_rows, n_classes)), np.zeros(n_rows, int)
        for probs, perm in zip(fed, perms):
            for lo in range(0, n_rows, batch):
                rows = perm[lo : lo + batch]
                ref_update_batch(mean, count, rows, probs[..., rows, :])
        assert store.mean.tobytes() == mean.tobytes()
        assert store.epochs == epochs and (count == epochs).all()

    @pytest.mark.parametrize("perm", [[0, 0, 2], [0, 1], [0, 1, 2, 3], [1, 2, 3], [-1, 0, 1],
                                      [[0, 1, 2]], [2.5, 0, 1]])
    def test_a_non_permutation_is_rejected_at_epoch_start(self, perm):
        store = TDStore(3, 2)
        feed(store, [[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
        mean = store.mean.copy()
        # a float order is no order of rows: cast to indices it would be [2, 0, 1]
        match = "row 2.5 is not an integer" if perm == [2.5, 0, 1] else "not a permutation"
        with pytest.raises(ValueError, match=match):
            with store.epoch(perm):
                pytest.fail("the epoch opened")
        assert store.mean.tobytes() == mean.tobytes() and store.epochs == 1
        with store.epoch([2, 0, 1]):  # still closed: a permutation opens an epoch
            store.update_batch(range(0, 3), np.full((3, 2), 0.5))

    def test_epochs_do_not_nest(self):
        store = TDStore(2, 2)
        with pytest.raises(RuntimeError, match="an epoch is open"):
            with store.epoch([1, 0]):
                with store.epoch([0, 1]):
                    pytest.fail("the inner epoch opened")

    def test_reads_are_outside_an_epoch_in_dataset_order(self):
        rng = np.random.default_rng(4)
        n, C = 5, 3
        first, second = rng.dirichlet(np.ones(C), size=(2, 2, n))
        store = TDStore(n, C, (2,))
        feed(store, first)
        perm = np.array([3, 0, 4, 1, 2])
        with store.epoch(perm):
            store.update_batch(range(0, 2), second[:, perm[:2]])
            # the store's means are in the epoch's order, half folded: no reads
            with pytest.raises(RuntimeError, match="an epoch is open"):
                store.values([0])
            store.update_batch(range(2, 5), second[:, perm[2:]])
        want = first + (second - first) / 2
        assert store.mean.tobytes() == want.tobytes()
        assert store.values([0, 3, 1]).tobytes() == want[:, [0, 3, 1]].tobytes()
        assert store.values([2, 0])[1].tobytes() == want[1, [2, 0]].tobytes()
        assert store.epochs == 2

    def test_a_range_fold_returns_the_store_s_means_as_a_view(self):
        store = TDStore(4, 2)
        with store.epoch([3, 2, 1, 0]):
            store.update_batch(range(0, 1), np.array([[1.0, 0.0]]))
            got = store.update_batch(range(1, 3), np.array([[0.5, 0.5], [0.25, 0.75]]))
            assert np.shares_memory(got, store.mean)
            store.update_batch(range(3, 4), np.array([[0.0, 1.0]]))
        assert got.tolist() == store.values([2, 1]).tolist()
