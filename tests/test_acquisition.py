import numpy as np
import pytest

from dynal.acquisition import kcenter_greedy, random_select, sample_subset, select_top_k
from dynal.estimators import HIGHER_IS_UNCERTAIN, LOWER_IS_UNCERTAIN, AcquisitionScore


def scores_from(mapping, direction):
    return [AcquisitionScore(sid, s, direction) for sid, s in mapping.items()]


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
        scores = scores_from({0: 0.1, 1: 0.9, 2: 0.5}, HIGHER_IS_UNCERTAIN)
        assert select_top_k(scores, 2) == [1, 2]

    def test_lower_direction(self):
        scores = scores_from({0: 0.1, 1: 0.9, 2: 0.5}, LOWER_IS_UNCERTAIN)
        assert select_top_k(scores, 1) == [0]

    def test_ties_break_by_id(self):
        scores = scores_from({5: 0.5, 2: 0.5, 9: 0.5}, HIGHER_IS_UNCERTAIN)
        assert select_top_k(scores, 2) == [2, 5]

    @pytest.mark.parametrize("direction", [HIGHER_IS_UNCERTAIN, LOWER_IS_UNCERTAIN])
    def test_nan_score_names_first_sample(self, direction):
        nan = float("nan")
        scores = scores_from({4: 0.1, 7: nan, 2: 0.3, 1: nan}, direction)
        with pytest.raises(ValueError, match="sample id 7"):
            select_top_k(scores, 2)

    def test_oversized_k_warns_and_returns_all(self):
        scores = scores_from({0: 0.3, 1: 0.1}, HIGHER_IS_UNCERTAIN)
        with pytest.warns(UserWarning):
            assert select_top_k(scores, 5) == [0, 1]

    def test_mixed_directions_rejected(self):
        scores = [
            AcquisitionScore(0, 0.5, HIGHER_IS_UNCERTAIN),
            AcquisitionScore(1, 0.5, LOWER_IS_UNCERTAIN),
        ]
        with pytest.raises(ValueError):
            select_top_k(scores, 1)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        scores = scores_from({i: float(v) for i, v in enumerate(rng.random(30))}, HIGHER_IS_UNCERTAIN)
        base = select_top_k(scores, 7)
        for _ in range(10):
            shuffled = [scores[i] for i in rng.permutation(30)]
            assert select_top_k(shuffled, 7) == base

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            ids = rng.permutation(1000)[:n]
            vals = np.round(rng.random(n), 2)  # coarse grid forces ties
            direction = HIGHER_IS_UNCERTAIN if rng.random() < 0.5 else LOWER_IS_UNCERTAIN
            scores = [AcquisitionScore(int(i), float(v), direction) for i, v in zip(ids, vals)]
            k = int(rng.integers(1, n + 1))
            sign = -1.0 if direction == HIGHER_IS_UNCERTAIN else 1.0
            oracle = [sid for _, sid in sorted((sign * v, int(i)) for i, v in zip(ids, vals))][:k]
            assert select_top_k(scores, k) == oracle


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


class TestRandomSelect:
    def test_full_pool(self):
        rng = np.random.default_rng(0)
        got = random_select(np.arange(6), 6, rng)
        assert sorted(got) == list(range(6))

    def test_seeded_determinism(self):
        a = random_select(np.arange(50), 5, np.random.default_rng(9))
        b = random_select(np.arange(50), 5, np.random.default_rng(9))
        assert a == b

    def test_uniformity(self):
        rng = np.random.default_rng(13)
        counts = np.zeros(4)
        for _ in range(10_000):
            counts[random_select(np.arange(4), 1, rng)[0]] += 1
        sigma = np.sqrt(10_000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 2500) <= 3 * sigma)
