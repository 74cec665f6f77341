import numpy as np
import pytest

from dynal.tdtrack import TDStore, td_init, td_update, td_value


def random_simplex(rng, n, C):
    return rng.dirichlet(np.ones(C), size=n)


class TestRecord:
    def test_init(self):
        rec = td_init(3)
        np.testing.assert_array_equal(rec.mean, np.zeros(3))
        assert rec.t == 0

    def test_value_before_update_is_state_error(self):
        with pytest.raises(RuntimeError):
            td_value(td_init(3))

    def test_inits_are_independent(self):
        a, b = td_init(2), td_init(2)
        a = td_update(a, np.array([1.0, 0.0]))
        assert b.t == 0
        np.testing.assert_array_equal(b.mean, np.zeros(2))

    def test_two_point_average(self):
        rec = td_init(2)
        rec = td_update(rec, np.array([1.0, 0.0]))
        rec = td_update(rec, np.array([0.0, 1.0]))
        np.testing.assert_allclose(td_value(rec), [0.5, 0.5], atol=1e-15)
        assert rec.t == 2

    def test_constant_stream_is_fixed_point(self):
        p = np.array([0.3, 0.2, 0.5])
        rec = td_init(3)
        for _ in range(9):
            rec = td_update(rec, p)
        np.testing.assert_allclose(td_value(rec), p, atol=1e-13)

    def test_matches_naive_mean(self):
        rng = np.random.default_rng(5)
        vecs = random_simplex(rng, 7, 4)
        rec = td_init(4)
        for v in vecs:
            rec = td_update(rec, v)
        np.testing.assert_allclose(td_value(rec), vecs.mean(axis=0), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            td_update(td_init(3), np.array([0.5, 0.5]))

    def test_single_update_returns_input(self):
        p = np.array([0.25, 0.75])
        rec = td_update(td_init(2), p)
        np.testing.assert_allclose(td_value(rec), p, atol=1e-15)


class TestProperties:
    def test_simplex_closure(self):
        rng = np.random.default_rng(11)
        rec = td_init(5)
        for v in random_simplex(rng, 50, 5):
            rec = td_update(rec, v)
            val = td_value(rec)
            assert np.all(val >= 0)
            assert abs(val.sum() - 1.0) < 1e-9

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        vecs = random_simplex(rng, 20, 3)
        rec_a = td_init(3)
        for v in vecs:
            rec_a = td_update(rec_a, v)
        rec_b = td_init(3)
        for v in vecs[rng.permutation(20)]:
            rec_b = td_update(rec_b, v)
        np.testing.assert_allclose(td_value(rec_a), td_value(rec_b), atol=1e-12)

    def test_count_tracks_updates(self):
        rng = np.random.default_rng(3)
        rec = td_init(2)
        for k, v in enumerate(random_simplex(rng, 100, 2), start=1):
            rec = td_update(rec, v)
            assert rec.t == k

    def test_hundred_updates_match_naive_sum(self):
        rng = np.random.default_rng(9)
        vecs = random_simplex(rng, 100, 6)
        rec = td_init(6)
        for v in vecs:
            rec = td_update(rec, v)
        naive = vecs.sum(axis=0) / 100.0
        np.testing.assert_allclose(td_value(rec), naive, atol=1e-12)


class TestStore:
    def test_update_and_values(self):
        store = TDStore(2)
        store.update(5, np.array([1.0, 0.0]))
        store.update(5, np.array([0.0, 1.0]))
        store.update(9, np.array([0.2, 0.8]))
        np.testing.assert_allclose(store.value(5), [0.5, 0.5])
        np.testing.assert_allclose(store.values([5, 9]), [[0.5, 0.5], [0.2, 0.8]])
        np.testing.assert_array_equal(store.counts([5, 9, 1]), [2, 1, 0])

    def test_missing_id(self):
        with pytest.raises(KeyError):
            TDStore(2).value(0)
