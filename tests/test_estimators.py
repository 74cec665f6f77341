import math

import numpy as np
import pytest

from dynal import estimators, theorysim
from dynal.estimators import (
    HEAD_STRATEGIES,
    HIGHER_IS_UNCERTAIN,
    LOWER_IS_UNCERTAIN,
    SCORE_DIRECTION,
    StrategyKind,
    entropy,
    margin_naive,
    margin_with_label,
    prob_at_predicted,
    prob_max,
    strategy_scores,
    tidal_margin,
)


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
        assert margin_with_label(np.array([0.6, 0.3, 0.1]), 0) == pytest.approx(0.3)

    def test_uniform_is_zero(self):
        for y in range(4):
            assert margin_with_label(np.full(4, 0.25), y) == pytest.approx(0.0)

    def test_one_hot_is_one(self):
        assert margin_with_label(np.array([0.0, 1.0, 0.0]), 1) == pytest.approx(1.0)

    def test_range_and_extremes(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            p = rng.dirichlet(np.ones(5))
            y = int(rng.integers(5))
            m = margin_with_label(p, y)
            assert -1.0 <= m <= 1.0

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            margin_with_label(np.array([0.5, 0.5]), 2)


class TestTidalMargin:
    def test_derived_example(self):
        got = tidal_margin(np.array([0.2, 0.5, 0.3]), np.array([0.1, 0.4, 0.5]))
        assert got == pytest.approx(-0.1, abs=1e-12)

    def test_one_hot_score(self):
        assert tidal_margin(np.array([0.9, 0.1]), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_uniform_score_is_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            assert tidal_margin(p, np.full(4, 0.25)) == pytest.approx(0.0, abs=1e-12)

    def test_reduces_to_margin_at_argmax(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = rng.dirichlet(np.ones(5))
            assert tidal_margin(p, p) == pytest.approx(
                margin_with_label(p, int(np.argmax(p))), abs=1e-12
            )

    def test_argmax_tie_breaks_low(self):
        p_cls = np.array([0.4, 0.4, 0.2])
        p_score = np.array([0.7, 0.1, 0.2])
        # tie at classes 0 and 1 resolves to class 0
        assert tidal_margin(p_cls, p_score) == pytest.approx(0.7 - 0.2)


class TestMarginNaive:
    def test_simple(self):
        assert margin_naive(np.array([0.5, 0.3, 0.2])) == pytest.approx(0.2, abs=1e-12)

    def test_uniform_is_zero(self):
        assert margin_naive(np.full(5, 0.2)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(6))
            srt = sorted(p, reverse=True)
            assert margin_naive(p) == pytest.approx(srt[0] - srt[1], abs=1e-12)


class TestProbVariants:
    def test_derived_example(self):
        p_cls = np.array([0.9, 0.1])
        p_mod = np.array([0.3, 0.7])
        assert prob_at_predicted(p_cls, p_mod) == pytest.approx(0.3)
        assert prob_max(p_mod) == pytest.approx(0.7)

    def test_coinciding_argmax(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            assert prob_at_predicted(p, p) == pytest.approx(p.max())
            assert prob_max(p) == pytest.approx(p.max())

    def test_uniform_module_output(self):
        rng = np.random.default_rng(7)
        u = np.full(5, 0.2)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            assert prob_at_predicted(p, u) == pytest.approx(0.2)
            assert prob_max(u) == pytest.approx(0.2)


class TestStrategyScoring:
    def test_directions_fixed_per_strategy(self):
        assert SCORE_DIRECTION[StrategyKind.SNAPSHOT_ENTROPY] == HIGHER_IS_UNCERTAIN
        assert SCORE_DIRECTION[StrategyKind.TIDAL_ENTROPY] == HIGHER_IS_UNCERTAIN
        for kind in (
            StrategyKind.SNAPSHOT_MARGIN,
            StrategyKind.TIDAL_MARGIN,
            StrategyKind.TIDAL_MARGIN_NAIVE,
            StrategyKind.TIDAL_PROB,
            StrategyKind.TIDAL_PROB_NAIVE,
        ):
            assert SCORE_DIRECTION[kind] == LOWER_IS_UNCERTAIN

    def test_round_trip_strings(self):
        for kind in StrategyKind:
            assert StrategyKind.from_string(kind.value) is kind
        with pytest.raises(ValueError):
            StrategyKind.from_string("nope")

    def test_scores_match_scalar_functions(self):
        rng = np.random.default_rng(8)
        p_cls = rng.dirichlet(np.ones(4), size=6)
        p_mod = rng.dirichlet(np.ones(4), size=6)
        ids = np.arange(10, 16)
        got = strategy_scores(StrategyKind.TIDAL_MARGIN, ids, p_cls, p_mod)
        for i, sc in enumerate(got):
            assert sc.sample_id == 10 + i
            assert sc.score == pytest.approx(tidal_margin(p_cls[i], p_mod[i]))

    def test_non_score_strategies_rejected(self):
        with pytest.raises(ValueError):
            strategy_scores(StrategyKind.RANDOM, np.arange(2), np.full((2, 2), 0.5))

    def test_missing_head_predictions_rejected(self):
        with pytest.raises(ValueError):
            strategy_scores(StrategyKind.TIDAL_ENTROPY, np.arange(2), np.full((2, 2), 0.5))

    def test_exactly_head_strategies_need_head_predictions(self):
        p = np.full((2, 2), 0.5)
        for kind in SCORE_DIRECTION:
            if kind in HEAD_STRATEGIES:
                with pytest.raises(ValueError, match="requires head predictions"):
                    strategy_scores(kind, np.arange(2), p)
            else:
                assert len(strategy_scores(kind, np.arange(2), p)) == 2


class TestSeparationOrdering:
    """Larger true-class mass must look less uncertain to both scores."""

    @pytest.mark.parametrize("C", [2, 3, 10, 100])
    def test_entropy_and_margin_move_oppositely(self, C):
        grid = np.arange(0.55, 0.96, 0.05)
        vecs = [theorysim.s_vector(s, C) for s in grid]
        ents = [entropy(v) for v in vecs]
        margs = [margin_with_label(v, 0) for v in vecs]
        assert all(a > b for a, b in zip(ents, ents[1:]))
        assert all(a < b for a, b in zip(margs, margs[1:]))

    @pytest.mark.parametrize("C", [2, 5, 10])
    def test_closed_forms_match_generic_estimators(self, C):
        for s in np.arange(0.55, 0.96, 0.05):
            v = theorysim.s_vector(s, C)
            assert entropy(v) == pytest.approx(theorysim.theorem2_entropy(s, C), abs=1e-12)
            assert margin_with_label(v, 0) == pytest.approx(
                theorysim.theorem2_margin(s, C), abs=1e-12
            )


class TestScoreDump:
    def test_csv_format(self, tmp_path):
        rows = [(3, "tidal_entropy", 0.25, 1, True), (1, "tidal_entropy", 0.5, 0, False)]
        path = tmp_path / "scores.csv"
        estimators.save_scores_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sample_id,strategy,score,predicted_label,selected"
        assert lines[1] == "3,tidal_entropy,0.25,1,1"
        assert lines[2] == "1,tidal_entropy,0.5,0,0"
