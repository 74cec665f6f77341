import tracemalloc
from fractions import Fraction

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

    def test_repeated_rows_with_k_the_pool_size_match_brute_force(self):
        # Once a row is picked its repeats sit at distance 0 from the cover, so
        # the last picks all tie at 0: each must still be picked exactly once,
        # lowest id first.  Small-integer features keep every distance exact.
        rng = np.random.default_rng(5)
        for _ in range(300):
            n, n_lab, dim = (int(v) for v in rng.integers(1, [12, 4, 4]))
            distinct = rng.integers(-2, 3, size=(int(rng.integers(1, 4)), dim)).astype(float)
            unl = distinct[rng.integers(0, len(distinct), size=n)]
            labeled = distinct[rng.integers(0, len(distinct), size=n_lab - 1)]
            ids = rng.permutation(100)[:n]
            got = kcenter_greedy(labeled, unl, ids, n)
            assert sorted(got) == sorted(ids.tolist())
            assert got == self.brute_force(labeled, unl, ids, n)

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

    def test_peak_memory_stays_bounded_when_every_pair_is_a_candidate(self):
        # equal labeled rows tie everywhere, so the filter keeps all 2000 x 500 pairs
        labeled = np.ones((500, 16))
        unl = np.random.default_rng(0).normal(size=(2000, 16))
        tracemalloc.start()
        try:
            kcenter_greedy(labeled, unl, np.arange(2000), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_unlabeled_feature_names_its_sample_id(self, value):
        unl = np.zeros((4, 3))
        unl[2, 1] = unl[3, 0] = value
        with pytest.raises(ValueError, match="non-finite feature for sample id 12"):
            kcenter_greedy(np.zeros((2, 3)), unl, np.array([13, 10, 12, 11]), 2)
        with pytest.raises(ValueError, match="non-finite feature for sample id 12"):
            kcenter_greedy(np.empty((0, 3)), unl, np.array([13, 10, 12, 11]), 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_labeled_feature_names_its_row(self, value):
        labeled = np.zeros((3, 2))
        labeled[1, 0] = value
        with pytest.raises(ValueError, match="non-finite feature in labeled row 1"):
            kcenter_greedy(labeled, np.ones((4, 2)), np.arange(4), 2)

    def test_width_mismatch_names_both_widths(self):
        with pytest.raises(ValueError, match="labeled features have width 3, unlabeled features width 2"):
            kcenter_greedy(np.zeros((2, 3)), np.ones((4, 2)), np.arange(4), 1)


def chunked_min_sq_dist(unl, lab):
    """k-center's first stage before the Gram filter: the minimum of
    ((a - b) ** 2).sum() over row chunks of the (n, m, d) difference
    tensor.  The filter must equal it bit for bit."""
    out = np.empty(len(unl))
    step = max(1, acquisition.KCENTER_CHUNK_FLOATS // lab.size)
    for lo in range(0, len(unl), step):
        d2 = ((unl[lo : lo + step, None, :] - lab[None, :, :]) ** 2).sum(axis=2)
        out[lo : lo + step] = d2.min(axis=1)
    return out


def chunked_kcenter(labeled, unl, ids, k):
    """kcenter_greedy before the Gram filter, for a non-empty labeled set."""
    order = np.argsort(ids, kind="stable")
    feats, ids = unl[order], ids[order]
    min_dist = np.sqrt(chunked_min_sq_dist(feats, labeled))
    chosen = np.zeros(len(ids), dtype=bool)
    selected = []
    while len(selected) < min(k, len(ids)):
        pick = int(np.argmax(np.where(chosen, -np.inf, min_dist)))
        selected.append(int(ids[pick]))
        chosen[pick] = True
        diff = feats - feats[pick]
        min_dist = np.minimum(min_dist, np.sqrt((diff * diff).sum(axis=1)))
    return selected


def gram_values(x, lab):
    """The Gram matrix as _candidate_pairs evaluates it."""
    g = x @ lab.T
    g *= -2.0
    g += (x * x).sum(axis=1)[:, None]
    g += (lab * lab).sum(axis=1)
    return g


def candidate_columns(x, lab):
    """{row of x: set of labeled rows} that _candidate_pairs keeps."""
    kept = {i: set() for i in range(len(x))}
    for rows, cols in acquisition._candidate_pairs(x, lab):
        for r, c in zip(rows.tolist(), cols.tolist()):
            kept[r].add(c)
    return kept


def feature_sets(kind, rng, n, m, d, scale):
    """Unlabeled and labeled features of one of several shapes that stress
    the filter: ties, duplicates, zeros and near-cancellation."""
    if kind == "relu":
        unl, lab = np.maximum(rng.normal(size=(n, d)), 0), np.maximum(rng.normal(size=(m, d)), 0)
    elif kind == "grid":  # small integers: many exact distance ties
        unl, lab = rng.integers(-2, 3, size=(n, d)), rng.integers(-2, 3, size=(m, d))
    elif kind == "duplicates":  # labeled rows repeat each other and unlabeled rows
        unl = rng.normal(size=(n, d))
        lab = np.concatenate([unl[rng.integers(0, n, size=m - m // 2)],
                              rng.normal(size=(m // 2, d))])
        lab = lab[rng.integers(0, m, size=m)]
    elif kind == "zeros":  # all-zero rows on both sides
        unl, lab = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        unl[rng.random(n) < 0.5] = 0.0
        lab[rng.random(m) < 0.5] = 0.0
    elif kind == "repeated":  # a few distinct labeled rows, repeated, some with -0.0 entries
        unl = np.maximum(rng.normal(size=(n, d)), 0)
        lab = np.maximum(rng.normal(size=(rng.integers(1, 3), d)), 0)
        lab = lab[rng.integers(0, len(lab), size=m)]
        lab[(lab == 0) & (rng.random((m, d)) < 0.5)] = -0.0
    else:  # "near": labeled rows within 1e-6 .. 1e-15 relative of unlabeled ones
        unl = rng.normal(size=(n, d))
        base = unl[rng.integers(0, n, size=m)]
        lab = base * (1 + 10.0 ** -rng.uniform(6, 15, size=(m, 1)) * rng.normal(size=(m, d)))
    return unl * scale, lab * scale


KINDS = ["relu", "grid", "duplicates", "zeros", "repeated", "near"]


class TestKCenterGramFilter:
    """The first stage of kcenter_greedy, filtered through Gram values and
    recomputed exactly, against the chunked difference tensor it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(KINDS), n=st.integers(1, 30), m=st.integers(1, 12),
           d=st.integers(1, 64), log_scale=st.floats(-150, 150),
           chunk=st.sampled_from([1, 7, 64, 2**20]), seed=st.integers(0, 2**32 - 1))
    def test_first_stage_equals_the_chunked_form(self, kind, n, m, d, log_scale, chunk, seed):
        rng = np.random.default_rng(seed)
        unl, lab = feature_sets(kind, rng, n, m, d, 10.0**log_scale)
        want = chunked_min_sq_dist(unl, lab)
        with pytest.MonkeyPatch.context() as mp:
            # small values give many Gram chunks and many pair blocks
            mp.setattr(acquisition, "KCENTER_CHUNK_FLOATS", chunk)
            got = acquisition._nearest_sq_dist(unl, lab)
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(KINDS), n=st.integers(1, 25), m=st.integers(1, 8),
           d=st.integers(1, 16), log_scale=st.floats(-150, 150), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_selections_equal_the_chunked_form(self, kind, n, m, d, log_scale, seed, data):
        rng = np.random.default_rng(seed)
        unl, lab = feature_sets(kind, rng, n, m, d, 10.0**log_scale)
        ids = rng.permutation(10 * n)[:n]
        k = data.draw(st.integers(1, n))
        assert kcenter_greedy(lab, unl, ids, k) == chunked_kcenter(lab, unl, ids, k)

    def test_every_width_from_1_to_64(self):
        # numpy unrolls its pairwise sum by 8, so widths on and off multiples of 8 differ
        rng = np.random.default_rng(5)
        for d in range(1, 65):
            unl, lab = feature_sets("relu", rng, 60, 20, d, 1.0)
            assert np.array_equal(acquisition._nearest_sq_dist(unl, lab),
                                  chunked_min_sq_dist(unl, lab)), d

    def test_duplicates_and_exact_ties_keep_every_tied_column(self):
        unl = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]])
        lab = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        kept = candidate_columns(unl, lab)
        assert kept[0] == {4}  # row 0 duplicates labeled row 4
        assert kept[1] == {0, 1, 3}  # three labeled rows at distance 1
        assert kept[2] == {0, 3}  # a duplicated labeled row is kept twice
        assert np.array_equal(acquisition._nearest_sq_dist(unl, lab), [0.0, 1.0, 4.0])

    def test_all_zero_rows(self):
        zeros = np.zeros((4, 6))
        lab = np.vstack([np.zeros((2, 6)), np.ones((1, 6))])
        assert candidate_columns(zeros, lab) == {i: {0, 1} for i in range(4)}
        assert np.array_equal(acquisition._nearest_sq_dist(zeros, lab), np.zeros(4))
        assert np.array_equal(acquisition._nearest_sq_dist(np.ones((2, 6)), np.zeros((3, 6))),
                              np.full(2, 6.0))

    @pytest.mark.parametrize("value", [0.0, 0.75])
    def test_equal_labeled_rows_keep_one_candidate_per_row(self, value):
        # All-equal labeled rows (all zero, as dead relu units give) tie in
        # every column; one of them is evaluated.
        rng = np.random.default_rng(4)
        unl = np.maximum(rng.normal(size=(400, 32)), 0)
        lab = np.full((500, 32), value)
        pairs = []
        candidates = acquisition._candidate_pairs

        def counting(x, labeled):
            for rows, cols in candidates(x, labeled):
                pairs.append(rows.size)
                yield rows, cols

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(acquisition, "_candidate_pairs", counting)
            got = acquisition._nearest_sq_dist(unl, lab)
        assert sum(pairs) == len(unl)
        assert np.array_equal(got, chunked_min_sq_dist(unl, lab))

    def test_rows_equal_but_for_the_sign_of_zero_give_the_chunked_minimum(self):
        lab = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        unl = np.array([[-0.0, 0.0], [2.0, 1.0]])
        assert np.array_equal(acquisition._nearest_sq_dist(unl, lab), chunked_min_sq_dist(unl, lab))
        assert np.array_equal(acquisition._nearest_sq_dist(unl, lab), [1.0, 4.0])

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 10), m=st.integers(1, 6), d=st.integers(1, 64),
           log_scale=st.floats(155, 300), near=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_overflowing_rows_keep_every_column(self, n, m, d, log_scale, near, seed):
        rng = np.random.default_rng(seed)
        unl = rng.normal(size=(n, d)) * 10.0**log_scale
        unl[:, 0] = (1 + np.abs(rng.normal(size=n))) * 10.0**log_scale  # every |a|^2 overflows
        # near-duplicates overflow their Gram values; below 1e160 not their differences
        base = rng.integers(0, n, size=m)
        lab = (unl[base] * (1 + 1e-12 * rng.normal(size=(m, d))) if near
               else rng.normal(size=(m, d)) * 10.0**log_scale)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(gram_values(unl, lab)).any()
            want = chunked_min_sq_dist(unl, lab)
            got = acquisition._nearest_sq_dist(unl, lab)
        assert np.array_equal(got, want)
        if near and log_scale <= 160:
            assert np.isfinite(got[base]).all()
        assert candidate_columns(unl, lab) == {i: set(range(m)) for i in range(n)}

    @pytest.mark.parametrize("d", [8, 13, 31, 64])
    def test_keeps_columns_just_inside_2E_and_drops_those_just_outside(self, d):
        # Integer features below 2**23 make every norm, dot product and Gram
        # value exact, so g equals D and the filter's edge can be placed:
        # labeled rows a - e with e in {0, 1}^d sit at D = |e|^2 from a.
        rng = np.random.default_rng(d)
        target = d / 3  # the 2E to aim for
        size = np.sqrt(target * 2.0**53 / (4 * (4 * d + 20)) / d)
        a = rng.integers(int(0.9 * size), int(1.1 * size), size=d).astype(float)
        norm = float((a * a).sum())
        # Labeled row -a has the largest norm, |a|^2, and never comes near a.
        two_e = float(2 * acquisition._gram_error_bound(np.array([norm]), norm, d)[0])
        inside = 1 + int(two_e)
        outside = inside + 1
        assert inside <= 1.0 + two_e < outside <= d

        def at(dist):
            e = np.zeros(d)
            e[rng.choice(d, size=dist, replace=False)] = 1.0
            return a - e

        lab = np.array([-a, at(outside), at(inside), at(1), at(outside), at(inside)])
        assert np.array_equal(gram_values(a[None], lab)[0],
                              [4 * norm, outside, inside, 1, outside, inside])
        assert candidate_columns(a[None], lab) == {0: {2, 3, 5}}
        assert np.array_equal(acquisition._nearest_sq_dist(a[None], lab), [1.0])

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 4), d=st.integers(1, 64),
           log_scale=st.one_of(st.floats(-165, -150), st.floats(-150, 150)),
           log_rel=st.floats(-17, 0),
           seed=st.integers(0, 2**32 - 1))
    def test_derived_bound_covers_gram_error_under_cancellation(self, n, m, d, log_scale,
                                                                log_rel, seed):
        # Labeled rows a relative 10**log_rel from unlabeled ones: |a|^2 + |b|^2
        # nearly cancels 2 a.b.  Scales below 1e-154 underflow the products.
        rng = np.random.default_rng(seed)
        unl = rng.normal(size=(n, d)) * 10.0**log_scale
        base = unl[rng.integers(0, n, size=m)]
        lab = base + 10.0**log_rel * np.abs(base).max() * rng.normal(size=(m, d))
        g = gram_values(unl, lab)
        r = ((unl[:, None, :] - lab[None, :, :]) ** 2).sum(axis=2)
        x_sq = (unl * unl).sum(axis=1)
        bound = acquisition._gram_error_bound(x_sq, (lab * lab).sum(axis=1).max(), d)
        for i in range(n):
            for j in range(m):
                exact = sum((Fraction(p) - Fraction(q)) ** 2 for p, q in zip(unl[i], lab[j]))
                assert abs(Fraction(g[i, j]) - Fraction(r[i, j])) <= Fraction(bound[i])
                assert abs(Fraction(g[i, j]) - exact) <= Fraction(bound[i])


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
