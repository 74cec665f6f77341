"""Selection rules: random subsets, top-k by score, k-center greedy."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .estimators import AcquisitionScore, uncertainty_value


def sample_subset(pool_ids: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample without replacement of min(size, |pool|) ids."""
    pool_ids = np.asarray(pool_ids)
    if pool_ids.size == 0:
        raise RuntimeError("cannot sample from an empty pool")
    if size < 1:
        raise ValueError("subset size must be >= 1")
    take = min(size, pool_ids.size)
    return rng.choice(pool_ids, size=take, replace=False)


def random_select(pool_ids: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """k uniform picks without replacement (the random baseline)."""
    return [int(i) for i in sample_subset(pool_ids, k, rng)]


def select_top_k(scores: list[AcquisitionScore], k: int) -> list[int]:
    """The k most uncertain ids, ties broken by ascending sample id.

    Output is ordered most-uncertain first.  Asking for more than is
    available returns everything with a warning.  A NaN score raises
    ValueError naming the first sample id that has one.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not scores:
        raise ValueError("no scores given")
    directions = {s.direction for s in scores}
    if len(directions) != 1:
        raise ValueError("scores mix directions")
    nan_ids = [s.sample_id for s in scores if math.isnan(s.score)]
    if nan_ids:
        raise ValueError(f"NaN score for sample id {nan_ids[0]}")
    if k > len(scores):
        warnings.warn(f"requested k={k} > {len(scores)} scored samples; returning all")
        k = len(scores)
    ranked = sorted(scores, key=lambda s: (-uncertainty_value(s), s.sample_id))
    return [s.sample_id for s in ranked[:k]]


def kcenter_greedy(
    labeled_feats: np.ndarray,
    unlabeled_feats: np.ndarray,
    unlabeled_ids: np.ndarray,
    k: int,
) -> list[int]:
    """Greedy farthest-point selection against the covered set.

    Repeatedly picks the unlabeled point with the largest Euclidean
    distance to its nearest covered point (labeled plus already
    selected); distance ties go to the lowest sample id.  With no
    labeled points the lowest-id unlabeled point seeds the cover.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    unlabeled_feats = np.atleast_2d(np.asarray(unlabeled_feats, dtype=np.float64))
    unlabeled_ids = np.asarray(unlabeled_ids)
    if unlabeled_feats.shape[0] != unlabeled_ids.shape[0]:
        raise ValueError("unlabeled features and ids length mismatch")
    n = unlabeled_feats.shape[0]
    k = min(k, n)

    # Process in ascending-id order so argmax's first-hit rule implements
    # the lowest-id tie break.
    order = np.argsort(unlabeled_ids, kind="stable")
    feats = unlabeled_feats[order]
    ids = unlabeled_ids[order]

    selected: list[int] = []
    chosen = np.zeros(n, dtype=bool)
    labeled_feats = np.asarray(labeled_feats, dtype=np.float64)
    if labeled_feats.size == 0:
        min_dist = np.full(n, np.inf)
        selected.append(int(ids[0]))
        chosen[0] = True
        diff = feats - feats[0]
        min_dist = np.minimum(min_dist, np.sqrt((diff * diff).sum(axis=1)))
    else:
        labeled_feats = np.atleast_2d(labeled_feats)
        d2 = ((feats[:, None, :] - labeled_feats[None, :, :]) ** 2).sum(axis=2)
        min_dist = np.sqrt(d2.min(axis=1))

    while len(selected) < k:
        masked = np.where(chosen, -np.inf, min_dist)
        pick = int(np.argmax(masked))
        selected.append(int(ids[pick]))
        chosen[pick] = True
        diff = feats - feats[pick]
        min_dist = np.minimum(min_dist, np.sqrt((diff * diff).sum(axis=1)))
    return selected
