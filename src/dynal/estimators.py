"""Uncertainty estimators over probability vectors.

Snapshot scores read the classifier's final prediction; dynamics-aware
scores read a (predicted or actual) mean-probability vector instead.
Every score is an array over the pool.  Margin- and probability-style
scores are "lower is more uncertain", entropy is the opposite;
``uncertainty`` is the one place that orients them.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .numutil import PROB_FLOOR, write_csv


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
    def _missing_(cls, value):
        raise ValueError(f"unknown strategy {value!r}; choose from {[k.value for k in cls]}")


# Strategies that score the head's predicted dynamics, not the snapshot.
HEAD_STRATEGIES = (
    StrategyKind.TIDAL_ENTROPY,
    StrategyKind.TIDAL_MARGIN,
    StrategyKind.TIDAL_MARGIN_NAIVE,
    StrategyKind.TIDAL_PROB,
    StrategyKind.TIDAL_PROB_NAIVE,
)


def entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats over the last axis, probabilities floored
    at 1e-12."""
    p = np.asarray(p, dtype=np.float64)
    terms = np.maximum(p, PROB_FLOOR)
    np.log(terms, out=terms)
    terms *= p
    # Negated after the sum: negated first, a one-hot row's -0.0 turns +0.0.
    return -terms.sum(axis=-1)


def margin(p: np.ndarray, y) -> np.ndarray:
    """``p[y]`` minus the largest other entry, per row over the last axis;
    in [-1, 1]."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y)[..., None]
    C = p.shape[-1]
    bad = (y < 0) | (y >= C)
    if bad.any():
        raise ValueError(f"class index {y[bad][0]} out of range for {C} classes")
    # Class-major, the max over classes is one elementwise reduce across
    # rows, not a short reduce per row.  A max is exact in any order.
    others = np.moveaxis(p, -1, 0).copy()
    np.put_along_axis(others, np.moveaxis(y, -1, 0), -np.inf, axis=0)
    return np.take_along_axis(p, y, axis=-1)[..., 0] - np.maximum.reduce(others, axis=0)


def strategy_scores(
    kind: StrategyKind, p_cls: np.ndarray, p_mod: np.ndarray | None = None
) -> np.ndarray:
    """(n,) scores of a pool under one score-based strategy.

    ``p_cls`` holds the classifier's probabilities (n, C); ``p_mod`` the
    head's predicted dynamics, which head strategies score instead of
    ``p_cls``.  The label is the classifier's argmax (ties to the lowest
    class), or the scored vector's own argmax for the ``_naive``
    variants; the score is the entropy, the margin at that label, or the
    probability of that label.  Random and coreset are rejected here.
    """
    kind = StrategyKind(kind)
    if kind in (StrategyKind.RANDOM, StrategyKind.CORESET):
        raise ValueError(f"strategy {kind.value} does not produce scores")
    p_cls = np.atleast_2d(np.asarray(p_cls, dtype=np.float64))
    p = p_cls
    if kind in HEAD_STRATEGIES:
        if p_mod is None:
            raise ValueError(f"strategy {kind.value} requires head predictions")
        p = np.atleast_2d(np.asarray(p_mod, dtype=np.float64))
        if p.shape != p_cls.shape:
            raise ValueError(f"shape mismatch {p_cls.shape} vs {p.shape}")
    if kind.value.endswith("entropy"):
        return entropy(p)
    y = (p if kind.value.endswith("naive") else p_cls).argmax(axis=1)
    if "margin" in kind.value:
        return margin(p, y)
    return np.take_along_axis(p, y[:, None], axis=1)[:, 0]


def uncertainty(name: str, scores: np.ndarray) -> np.ndarray:
    """Orient the scores of a strategy or estimator ``name`` so that larger
    always means more uncertain: entropies as they are, margins and
    probabilities negated."""
    scores = np.asarray(scores, dtype=np.float64)
    return scores if name.endswith("entropy") else -scores


def save_scores_csv(path, ids, scores_by_name, labels, selected=()) -> None:
    """Score dump: ``sample_id,strategy,score,predicted_label,selected``.

    ``scores_by_name`` maps each strategy or estimator name to the scores
    of ``ids``, and ``labels`` are their predicted labels.  One row per
    name, in order, then per id; selected is 1 exactly for the ids in
    ``selected``.
    """
    ids = np.asarray(ids)
    id_list, labels = ids.tolist(), np.asarray(labels).tolist()
    chosen = np.isin(ids, selected).astype(int).tolist()  # 0/1, as write_csv writes a bool
    rows = [(i, name, s, lbl, c) for name, scores in scores_by_name.items()
            for i, s, lbl, c in zip(id_list, np.asarray(scores).tolist(), labels, chosen)]
    write_csv(path, ["sample_id", "strategy", "score", "predicted_label", "selected"], rows)
