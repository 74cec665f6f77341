"""Uncertainty estimators over probability vectors.

Snapshot scores read the classifier's final prediction; dynamics-aware
scores read a (predicted or actual) mean-probability vector instead.
Margin- and probability-style scores are "lower is more uncertain",
entropy is the opposite; each strategy carries its direction so
selection code never guesses.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numutil import PROB_FLOOR


class StrategyKind(str, Enum):
    RANDOM = "random"
    SNAPSHOT_ENTROPY = "snapshot_entropy"
    SNAPSHOT_MARGIN = "snapshot_margin"
    CORESET = "coreset"
    TIDAL_ENTROPY = "tidal_entropy"
    TIDAL_MARGIN = "tidal_margin"
    TIDAL_MARGIN_NAIVE = "tidal_margin_naive"
    TIDAL_PROB = "tidal_prob"
    TIDAL_PROB_NAIVE = "tidal_prob_naive"

    @classmethod
    def from_string(cls, s: str) -> "StrategyKind":
        try:
            return cls(s)
        except ValueError:
            raise ValueError(
                f"unknown strategy {s!r}; choose from {[k.value for k in cls]}"
            ) from None


HIGHER_IS_UNCERTAIN = "higher_is_uncertain"
LOWER_IS_UNCERTAIN = "lower_is_uncertain"

# Direction is a fixed property of the strategy, not of a score instance.
SCORE_DIRECTION = {
    StrategyKind.SNAPSHOT_ENTROPY: HIGHER_IS_UNCERTAIN,
    StrategyKind.TIDAL_ENTROPY: HIGHER_IS_UNCERTAIN,
    StrategyKind.SNAPSHOT_MARGIN: LOWER_IS_UNCERTAIN,
    StrategyKind.TIDAL_MARGIN: LOWER_IS_UNCERTAIN,
    StrategyKind.TIDAL_MARGIN_NAIVE: LOWER_IS_UNCERTAIN,
    StrategyKind.TIDAL_PROB: LOWER_IS_UNCERTAIN,
    StrategyKind.TIDAL_PROB_NAIVE: LOWER_IS_UNCERTAIN,
}

# Strategies that score the head's predicted dynamics, not the snapshot.
HEAD_STRATEGIES = (
    StrategyKind.TIDAL_ENTROPY,
    StrategyKind.TIDAL_MARGIN,
    StrategyKind.TIDAL_MARGIN_NAIVE,
    StrategyKind.TIDAL_PROB,
    StrategyKind.TIDAL_PROB_NAIVE,
)


@dataclass
class AcquisitionScore:
    sample_id: int
    score: float
    direction: str


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats, probabilities floored at 1e-12."""
    p = np.asarray(p, dtype=np.float64)
    return float(-(p * np.log(np.maximum(p, PROB_FLOOR))).sum())


def margin_with_label(p: np.ndarray, y: int) -> float:
    """p[y] minus the largest other-class probability; in [-1, 1]."""
    p = np.asarray(p, dtype=np.float64)
    if not 0 <= y < p.shape[0]:
        raise ValueError(f"class index {y} out of range for {p.shape[0]} classes")
    others = np.delete(p, y)
    return float(p[y] - others.max())


def tidal_margin(p_cls: np.ndarray, p_score: np.ndarray) -> float:
    """Margin of the score vector at the classifier's predicted label.

    The label is argmax of ``p_cls`` (ties to the lowest index); the
    margin is then read off ``p_score``.  With ``p_score == p_cls`` this
    is the snapshot margin usable without ground truth.
    """
    p_cls = np.asarray(p_cls, dtype=np.float64)
    p_score = np.asarray(p_score, dtype=np.float64)
    if p_cls.shape != p_score.shape:
        raise ValueError(f"shape mismatch {p_cls.shape} vs {p_score.shape}")
    y_hat = int(np.argmax(p_cls))
    return margin_with_label(p_score, y_hat)


def margin_naive(p_mod: np.ndarray) -> float:
    """Gap between the two largest entries (exact ties give 0)."""
    p_mod = np.asarray(p_mod, dtype=np.float64)
    top2 = np.sort(p_mod)[-2:]
    return float(top2[1] - top2[0])


def prob_at_predicted(p_cls: np.ndarray, p_mod: np.ndarray) -> float:
    """Score-vector probability of the classifier's predicted label."""
    p_cls = np.asarray(p_cls, dtype=np.float64)
    p_mod = np.asarray(p_mod, dtype=np.float64)
    if p_cls.shape != p_mod.shape:
        raise ValueError(f"shape mismatch {p_cls.shape} vs {p_mod.shape}")
    return float(p_mod[int(np.argmax(p_cls))])


def prob_max(p_mod: np.ndarray) -> float:
    """Largest entry of the score vector."""
    return float(np.asarray(p_mod, dtype=np.float64).max())


def strategy_scores(
    kind: StrategyKind,
    sample_ids: np.ndarray,
    p_cls: np.ndarray,
    p_mod: np.ndarray | None = None,
) -> list[AcquisitionScore]:
    """Score a pool of samples under one score-based strategy.

    ``p_cls`` holds the classifier's probabilities (n, C); ``p_mod`` the
    head's predicted dynamics where the strategy needs them.  Random and
    coreset are not score-based and are rejected here.
    """
    kind = StrategyKind(kind)
    if kind not in SCORE_DIRECTION:
        raise ValueError(f"strategy {kind.value} does not produce scores")
    p_cls = np.atleast_2d(np.asarray(p_cls, dtype=np.float64))
    if kind in HEAD_STRATEGIES:
        if p_mod is None:
            raise ValueError(f"strategy {kind.value} requires head predictions")
        p_mod = np.atleast_2d(np.asarray(p_mod, dtype=np.float64))

    direction = SCORE_DIRECTION[kind]
    out = []
    for i, sid in enumerate(sample_ids):
        pc = p_cls[i]
        if kind is StrategyKind.SNAPSHOT_ENTROPY:
            s = entropy(pc)
        elif kind is StrategyKind.SNAPSHOT_MARGIN:
            s = tidal_margin(pc, pc)
        elif kind is StrategyKind.TIDAL_ENTROPY:
            s = entropy(p_mod[i])
        elif kind is StrategyKind.TIDAL_MARGIN:
            s = tidal_margin(pc, p_mod[i])
        elif kind is StrategyKind.TIDAL_MARGIN_NAIVE:
            s = margin_naive(p_mod[i])
        elif kind is StrategyKind.TIDAL_PROB:
            s = prob_at_predicted(pc, p_mod[i])
        else:
            s = prob_max(p_mod[i])
        out.append(AcquisitionScore(int(sid), s, direction))
    return out


def uncertainty_value(score: AcquisitionScore) -> float:
    """Orient a score so that larger always means more uncertain."""
    return score.score if score.direction == HIGHER_IS_UNCERTAIN else -score.score


def save_scores_csv(path, rows) -> None:
    """Score dump: ``sample_id,strategy,score,predicted_label,selected``.

    ``rows`` are (sample_id, strategy, score, predicted_label, selected)
    tuples; selected is written as 0/1.
    """
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["sample_id", "strategy", "score", "predicted_label", "selected"])
        for sid, strat, score, label, selected in rows:
            w.writerow([sid, strat, repr(float(score)), label, int(selected)])
