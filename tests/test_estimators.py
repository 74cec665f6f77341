import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynal import estimators, theorysim
from dynal.estimators import (
    HEAD_STRATEGIES,
    StrategyKind,
    entropy,
    margin,
    strategy_scores,
    uncertainty,
)

SCORE_KINDS = [k for k in StrategyKind if k not in (StrategyKind.RANDOM, StrategyKind.CORESET)]


# Per-row reference scores: one probability vector at a time, in plain
# numpy and Python, independent of the batched code under test.

def ref_entropy(p):
    return float(-(p * np.log(np.maximum(p, 1e-12))).sum())


def ref_margin(p, y):
    return float(p[y] - np.delete(p, y).max())


def ref_score(kind, pc, pm):
    """The score of one row under ``kind``, written per row."""
    kind = StrategyKind(kind)
    p = pm if kind in HEAD_STRATEGIES else pc
    if kind in (StrategyKind.SNAPSHOT_ENTROPY, StrategyKind.TIDAL_ENTROPY):
        return ref_entropy(p)
    if kind in (StrategyKind.SNAPSHOT_MARGIN, StrategyKind.TIDAL_MARGIN):
        return ref_margin(p, int(np.argmax(pc)))
    if kind is StrategyKind.TIDAL_MARGIN_NAIVE:
        top2 = np.sort(p)[-2:]
        return float(top2[1] - top2[0])
    if kind is StrategyKind.TIDAL_PROB:
        return float(p[int(np.argmax(pc))])
    return float(p.max())


def score_one(kind, p_cls, p_mod=None):
    """strategy_scores on a single row."""
    p_mod = None if p_mod is None else np.asarray(p_mod)[None]
    return float(strategy_scores(kind, np.asarray(p_cls)[None], p_mod)[0])


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert entropy(np.array([0.0, 1.0, 0.0])) == pytest.approx(0.0, abs=1e-10)

    def test_uniform_is_log_c(self):
        assert entropy(np.full(4, 0.25)) == pytest.approx(math.log(4), abs=1e-12)

    def test_derived_value(self):
        p = [0.7, 0.2, 0.1]
        oracle = -sum(v * math.log(v) for v in p)
        assert entropy(np.array(p)) == pytest.approx(oracle, abs=1e-12)
        assert entropy(np.array(p)) == pytest.approx(0.801819, abs=1e-6)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for C in (2, 3, 8):
            for _ in range(200):
                p = rng.dirichlet(np.ones(C))
                h = entropy(p)
                assert -1e-12 <= h <= math.log(C) + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(6))
        for _ in range(10):
            assert entropy(p[rng.permutation(6)]) == pytest.approx(entropy(p), abs=1e-12)


class TestMarginWithLabel:
    def test_simple_case(self):
        assert margin(np.array([0.6, 0.3, 0.1]), 0) == pytest.approx(0.3)

    def test_uniform_is_zero(self):
        for y in range(4):
            assert margin(np.full(4, 0.25), y) == pytest.approx(0.0)

    def test_one_hot_is_one(self):
        assert margin(np.array([0.0, 1.0, 0.0]), 1) == pytest.approx(1.0)

    def test_range_and_extremes(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            p = rng.dirichlet(np.ones(5))
            y = int(rng.integers(5))
            m = margin(p, y)
            assert -1.0 <= m <= 1.0

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            margin(np.array([0.5, 0.5]), 2)


class TestTidalMargin:
    def test_derived_example(self):
        got = score_one("tidal_margin", [0.2, 0.5, 0.3], [0.1, 0.4, 0.5])
        assert got == pytest.approx(-0.1, abs=1e-12)

    def test_one_hot_score(self):
        assert score_one("tidal_margin", [0.9, 0.1], [1.0, 0.0]) == pytest.approx(1.0)

    def test_uniform_score_is_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            assert score_one("tidal_margin", p, np.full(4, 0.25)) == pytest.approx(0.0, abs=1e-12)

    def test_reduces_to_margin_at_argmax(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = rng.dirichlet(np.ones(5))
            assert score_one("tidal_margin", p, p) == pytest.approx(
                margin(p, int(np.argmax(p))), abs=1e-12
            )

    def test_argmax_tie_breaks_low(self):
        p_cls = np.array([0.4, 0.4, 0.2])
        p_score = np.array([0.7, 0.1, 0.2])
        # tie at classes 0 and 1 resolves to class 0
        assert score_one("tidal_margin", p_cls, p_score) == pytest.approx(0.7 - 0.2)


class TestMarginNaive:
    def test_simple(self):
        p = np.array([0.5, 0.3, 0.2])
        assert score_one("tidal_margin_naive", p[::-1], p) == pytest.approx(0.2, abs=1e-12)

    def test_uniform_is_zero(self):
        u = np.full(5, 0.2)
        assert score_one("tidal_margin_naive", u, u) == pytest.approx(0.0, abs=1e-12)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(6))
            srt = sorted(p, reverse=True)
            assert score_one("tidal_margin_naive", p[::-1], p) == pytest.approx(
                srt[0] - srt[1], abs=1e-12
            )


class TestProbVariants:
    def test_derived_example(self):
        p_cls = np.array([0.9, 0.1])
        p_mod = np.array([0.3, 0.7])
        assert score_one("tidal_prob", p_cls, p_mod) == pytest.approx(0.3)
        assert score_one("tidal_prob_naive", p_cls, p_mod) == pytest.approx(0.7)

    def test_coinciding_argmax(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            assert score_one("tidal_prob", p, p) == pytest.approx(p.max())
            assert score_one("tidal_prob_naive", p[::-1], p) == pytest.approx(p.max())

    def test_uniform_module_output(self):
        rng = np.random.default_rng(7)
        u = np.full(5, 0.2)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            assert score_one("tidal_prob", p, u) == pytest.approx(0.2)
            assert score_one("tidal_prob_naive", p, u) == pytest.approx(0.2)


class TestStrategyScoring:
    def test_directions_fixed_per_strategy(self):
        s = np.array([0.25, -0.5, 0.0])
        for kind in (StrategyKind.SNAPSHOT_ENTROPY, StrategyKind.TIDAL_ENTROPY):
            np.testing.assert_array_equal(uncertainty(kind, s), s)
        for kind in (
            StrategyKind.SNAPSHOT_MARGIN,
            StrategyKind.TIDAL_MARGIN,
            StrategyKind.TIDAL_MARGIN_NAIVE,
            StrategyKind.TIDAL_PROB,
            StrategyKind.TIDAL_PROB_NAIVE,
        ):
            np.testing.assert_array_equal(uncertainty(kind, s), -s)

    def test_round_trip_strings(self):
        for kind in StrategyKind:
            assert StrategyKind(kind.value) is kind
        with pytest.raises(ValueError):
            StrategyKind("nope")

    def test_scores_match_scalar_functions(self):
        rng = np.random.default_rng(8)
        p_cls = rng.dirichlet(np.ones(4), size=6)
        p_mod = rng.dirichlet(np.ones(4), size=6)
        got = strategy_scores(StrategyKind.TIDAL_MARGIN, p_cls, p_mod)
        assert got.shape == (6,)
        for i, sc in enumerate(got):
            assert sc == pytest.approx(ref_score("tidal_margin", p_cls[i], p_mod[i]))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 30), C=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           ties=st.booleans())
    def test_every_strategy_matches_per_row_reference(self, n, C, seed, ties):
        rng = np.random.default_rng(seed)
        p_cls = rng.dirichlet(np.ones(C), size=n)
        p_mod = rng.dirichlet(np.ones(C), size=n)
        if ties:  # a coarse grid makes equal entries, so argmax and margin ties occur
            p_cls = np.round(p_cls * 4) / 4
            p_mod = np.round(p_mod * 4) / 4
        for kind in SCORE_KINDS:
            got = strategy_scores(kind, p_cls, p_mod)
            want = [ref_score(kind, p_cls[i], p_mod[i]) for i in range(n)]
            assert got.shape == (n,)
            assert np.abs(got - want).max() <= 1e-12, kind.value

    def test_non_score_strategies_rejected(self):
        for kind in (StrategyKind.RANDOM, StrategyKind.CORESET):
            with pytest.raises(ValueError):
                strategy_scores(kind, np.full((2, 2), 0.5))

    def test_unknown_strategy_name_lists_the_choices(self):
        choices = str([k.value for k in StrategyKind])
        with pytest.raises(ValueError) as err:
            strategy_scores("nope", np.full((2, 2), 0.5))
        assert str(err.value) == f"unknown strategy 'nope'; choose from {choices}"

    def test_missing_head_predictions_rejected(self):
        with pytest.raises(ValueError):
            strategy_scores(StrategyKind.TIDAL_ENTROPY, np.full((2, 2), 0.5))

    def test_exactly_head_strategies_need_head_predictions(self):
        p = np.full((2, 2), 0.5)
        for kind in SCORE_KINDS:
            if kind in HEAD_STRATEGIES:
                with pytest.raises(ValueError, match="requires head predictions"):
                    strategy_scores(kind, p)
            else:
                assert len(strategy_scores(kind, p)) == 2


class TestSeparationOrdering:
    """Larger true-class mass must look less uncertain to both scores."""

    @pytest.mark.parametrize("C", [2, 3, 10, 100])
    def test_entropy_and_margin_move_oppositely(self, C):
        grid = np.arange(0.55, 0.96, 0.05)
        vecs = [theorysim.s_vector(s, C) for s in grid]
        ents = [entropy(v) for v in vecs]
        margs = [margin(v, 0) for v in vecs]
        assert all(a > b for a, b in zip(ents, ents[1:]))
        assert all(a < b for a, b in zip(margs, margs[1:]))

    @pytest.mark.parametrize("C", [2, 5, 10])
    def test_closed_forms_match_generic_estimators(self, C):
        for s in np.arange(0.55, 0.96, 0.05):
            v = theorysim.s_vector(s, C)
            assert entropy(v) == pytest.approx(theorysim.theorem2_entropy(s, C), abs=1e-12)
            assert margin(v, 0) == pytest.approx(
                theorysim.theorem2_margin(s, C), abs=1e-12
            )


class TestScoreDump:
    HEADER = "sample_id,strategy,score,predicted_label,selected"

    def test_csv_format(self, tmp_path):
        path = tmp_path / "scores.csv"
        estimators.save_scores_csv(path, [3, 1], {"tidal_entropy": [0.25, 0.5]}, [1, 0],
                                   selected=[3])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == self.HEADER
        assert lines[1] == "3,tidal_entropy,0.25,1,1"
        assert lines[2] == "1,tidal_entropy,0.5,0,0"

    def test_names_in_order_then_ids_none_selected(self, tmp_path):
        # The pilot's shape: arrays, several names, nothing selected.
        path = tmp_path / "scores.csv"
        scores = {"td_margin": np.array([0.1, -0.75]), "td_entropy": np.array([1 / 3, 0.0])}
        estimators.save_scores_csv(path, np.array([9, 4]), scores, np.array([2, 0]))
        assert path.read_text().splitlines() == [
            self.HEADER,
            "9,td_margin,0.1,2,0", "4,td_margin,-0.75,0,0",
            f"9,td_entropy,{1 / 3!r},2,0", "4,td_entropy,0.0,0,0",
        ]

    def test_selected_matches_ids_not_positions(self, tmp_path):
        path = tmp_path / "scores.csv"
        estimators.save_scores_csv(path, [5, 7, 2, 8], {"snapshot_margin": [0.5, 0.25, 0.0, 1.0]},
                                   [0, 1, 1, 0], selected=[8, 5, 2])
        assert [line.split(",")[0::4] for line in path.read_text().splitlines()[1:]] == [
            ["5", "1"], ["7", "0"], ["2", "1"], ["8", "1"],
        ]
