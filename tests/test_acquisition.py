import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynal import acquisition
from dynal.acquisition import kcenter_greedy, sample_subset, select_top_k
from dynal.estimators import uncertainty


def top_k(mapping, name, k):
    """select_top_k over {id: raw score} for strategy ``name``, as a list."""
    ids = np.array(list(mapping), dtype=np.int64)
    u = uncertainty(name, np.array(list(mapping.values()), dtype=float))
    return select_top_k(ids, u, k).tolist()


class TestSampleSubset:
    def test_oversized_request_returns_whole_pool(self):
        rng = np.random.default_rng(0)
        pool = np.arange(5)
        out = sample_subset(pool, 10, rng)
        assert sorted(out.tolist()) == list(range(5))

    def test_seeded_determinism(self):
        pool = np.arange(100)
        a = sample_subset(pool, 10, np.random.default_rng(42))
        b = sample_subset(pool, 10, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_empty_pool_is_state_error(self):
        with pytest.raises(RuntimeError):
            sample_subset(np.array([]), 1, np.random.default_rng(0))

    def test_uniformity(self):
        # 10k draws of size 1 from a pool of 4: 3 sigma band around 2500
        rng = np.random.default_rng(7)
        pool = np.arange(4)
        counts = np.zeros(4)
        for _ in range(10_000):
            counts[sample_subset(pool, 1, rng)[0]] += 1
        sigma = np.sqrt(10_000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 2500) <= 3 * sigma)

    def test_no_duplicates(self):
        rng = np.random.default_rng(3)
        out = sample_subset(np.arange(50), 20, rng)
        assert len(set(out.tolist())) == 20


class TestSelectTopK:
    def test_higher_direction(self):
        assert top_k({0: 0.1, 1: 0.9, 2: 0.5}, "snapshot_entropy", 2) == [1, 2]

    def test_lower_direction(self):
        assert top_k({0: 0.1, 1: 0.9, 2: 0.5}, "snapshot_margin", 1) == [0]

    def test_ties_break_by_id(self):
        assert top_k({5: 0.5, 2: 0.5, 9: 0.5}, "snapshot_entropy", 2) == [2, 5]

    @pytest.mark.parametrize("name", ["snapshot_entropy", "snapshot_margin"],
                             ids=["higher_is_uncertain", "lower_is_uncertain"])
    def test_nan_score_names_first_sample(self, name):
        nan = float("nan")
        with pytest.raises(ValueError, match="sample id 7"):
            top_k({4: 0.1, 7: nan, 2: 0.3, 1: nan}, name, 2)

    def test_oversized_k_warns_and_returns_all(self):
        with pytest.warns(UserWarning):
            assert top_k({0: 0.3, 1: 0.1}, "snapshot_entropy", 5) == [0, 1]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no scores"):
            select_top_k(np.array([], dtype=np.int64), np.array([]), 1)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        ids, u = np.arange(30), rng.random(30)
        base = select_top_k(ids, u, 7).tolist()
        for _ in range(10):
            perm = rng.permutation(30)
            assert select_top_k(ids[perm], u[perm], 7).tolist() == base

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            ids = rng.permutation(1000)[:n]
            vals = np.round(rng.random(n), 2)  # coarse grid forces ties
            name = "snapshot_entropy" if rng.random() < 0.5 else "snapshot_margin"
            k = int(rng.integers(1, n + 1))
            sign = -1.0 if name.endswith("entropy") else 1.0
            oracle = [sid for _, sid in sorted((sign * v, int(i)) for i, v in zip(ids, vals))][:k]
            assert select_top_k(ids, uncertainty(name, vals), k).tolist() == oracle

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([-1.0, -0.5, 0.0, 0.5])),
                      min_size=1, max_size=40, unique_by=lambda r: r[0]),
        data=st.data(),
    )
    def test_equals_sorted_oracle_with_ties(self, rows, data):
        ids = np.array([i for i, _ in rows], dtype=np.int64)
        u = np.array([v for _, v in rows])
        k = data.draw(st.integers(1, len(rows)))
        oracle = [i for _, i in sorted((-v, i) for i, v in rows)][:k]
        assert select_top_k(ids, u, k).tolist() == oracle

    @settings(max_examples=100, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 10**6), min_size=2, max_size=300, unique=True),
        data=st.data(),
    )
    def test_many_ties_at_the_kth_value(self, ids, data):
        # most values sit on one level, so the k-th value is shared by many ids
        # that the partition must all keep before the id tie break
        n = len(ids)
        tie = data.draw(st.sampled_from([0.0, -0.0, 0.25, -np.inf]))
        others = st.sampled_from([-1.0, -0.0, 0.0, 0.5, np.inf])
        vals = [data.draw(st.one_of(st.just(tie), others) if i % 4 == 0 else st.just(tie))
                for i in range(n)]
        k = data.draw(st.integers(1, n))
        oracle = [i for _, i in sorted((-v, i) for i, v in zip(ids, vals))][:k]
        got = select_top_k(np.array(ids, dtype=np.int64), np.array(vals), k).tolist()
        assert got == oracle


class TestKCenterGreedy:
    def brute_force(self, labeled, unlabeled, ids, k):
        labeled = [np.asarray(p, dtype=float) for p in labeled]
        remaining = {int(i): np.asarray(p, dtype=float) for i, p in zip(ids, unlabeled)}
        covered = list(labeled)
        if not covered:
            first = min(remaining)
            covered.append(remaining.pop(first))
            chosen = [first]
        else:
            chosen = []
        while len(chosen) < min(k, len(chosen) + len(remaining)):
            best_id, best_d = None, -1.0
            for sid in sorted(remaining):
                d = min(np.linalg.norm(remaining[sid] - c) for c in covered)
                if d > best_d:
                    best_id, best_d = sid, d
            covered.append(remaining.pop(best_id))
            chosen.append(best_id)
        return chosen

    def test_picks_farthest_point(self):
        labeled = np.array([[0.0, 0.0]])
        unl = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 0.0]])
        assert kcenter_greedy(labeled, unl, np.array([0, 1, 2]), 1) == [2]

    def test_k_equals_pool_selects_all(self):
        labeled = np.array([[0.0, 0.0]])
        unl = np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        got = kcenter_greedy(labeled, unl, np.array([10, 11, 12]), 3)
        assert sorted(got) == [10, 11, 12]
        assert got == self.brute_force(labeled, unl, [10, 11, 12], 3)

    def test_distance_tie_breaks_to_lowest_id(self):
        labeled = np.array([[0.0, 0.0]])
        unl = np.array([[1.0, 0.0], [-1.0, 0.0]])  # equidistant from the cover
        assert kcenter_greedy(labeled, unl, np.array([9, 4]), 1) == [4]

    def test_duplicate_of_labeled_never_beats_farther_point(self):
        labeled = np.array([[1.0, 1.0]])
        unl = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert kcenter_greedy(labeled, unl, np.array([0, 1]), 1) == [1]

    def test_empty_labeled_seeds_lowest_id(self):
        unl = np.array([[5.0, 0.0], [0.0, 0.0], [9.0, 0.0]])
        got = kcenter_greedy(np.empty((0, 2)), unl, np.array([7, 3, 9]), 2)
        assert got[0] == 3  # lowest id seeds the cover
        assert got == self.brute_force([], unl, [7, 3, 9], 2)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            n_lab = int(rng.integers(0, 4))
            dim = int(rng.integers(1, 4))
            labeled = rng.normal(size=(n_lab, dim))
            unl = rng.normal(size=(n, dim))
            ids = rng.permutation(100)[:n]
            k = int(rng.integers(1, n + 1))
            assert kcenter_greedy(labeled, unl, ids, k) == self.brute_force(labeled, unl, ids, k)

    def test_selection_subset_no_duplicates(self):
        rng = np.random.default_rng(2)
        unl = rng.normal(size=(20, 3))
        ids = np.arange(20)
        got = kcenter_greedy(rng.normal(size=(4, 3)), unl, ids, 8)
        assert len(got) == len(set(got)) == 8
        assert set(got) <= set(ids.tolist())


    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 40), n_lab=st.integers(1, 6), dim=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_chunked_distances_match_brute_force(self, n, n_lab, dim, seed, data):
        rng = np.random.default_rng(seed)
        labeled = rng.normal(size=(n_lab, dim))
        unl = rng.normal(size=(n, dim))
        ids = rng.permutation(10 * n)[:n]
        k = data.draw(st.integers(1, n))
        with pytest.MonkeyPatch.context() as mp:
            # chunks of 3 unlabeled rows, so most pools span several chunks
            mp.setattr(acquisition, "KCENTER_CHUNK_FLOATS", 3 * n_lab * dim)
            got = kcenter_greedy(labeled, unl, ids, k)
        assert got == self.brute_force(labeled, unl, ids, k)

    def test_peak_memory_stays_bounded(self):
        rng = np.random.default_rng(0)
        labeled = rng.normal(size=(500, 16))
        unl = rng.normal(size=(2000, 16))
        ids = np.arange(2000)
        tracemalloc.start()
        try:
            kcenter_greedy(labeled, unl, ids, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole (2000, 500, 16) difference tensor alone would be 128 MB
        assert peak < 40 * 2**20


class TestRandomSelect:
    """The random baseline: ``run_cycle`` picks its budget with ``sample_subset``."""

    def test_full_pool(self):
        rng = np.random.default_rng(0)
        got = sample_subset(np.arange(6), 6, rng)
        assert sorted(got.tolist()) == list(range(6))

    def test_seeded_determinism(self):
        a = sample_subset(np.arange(50), 5, np.random.default_rng(9))
        b = sample_subset(np.arange(50), 5, np.random.default_rng(9))
        assert a.tolist() == b.tolist()

    def test_uniformity(self):
        rng = np.random.default_rng(13)
        counts = np.zeros(4)
        for _ in range(10_000):
            counts[sample_subset(np.arange(4), 1, rng)[0]] += 1
        sigma = np.sqrt(10_000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 2500) <= 3 * sigma)
