"""Selection rules: random subsets, top-k by score, k-center greedy."""

from __future__ import annotations

import warnings

import numpy as np

# Entries of one chunk of k-center's labeled-distance tensor (8 MB of float64).
KCENTER_CHUNK_FLOATS = 2**20


def sample_subset(pool_ids: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample without replacement of min(size, |pool|) ids."""
    pool_ids = np.asarray(pool_ids)
    if pool_ids.size == 0:
        raise RuntimeError("cannot sample from an empty pool")
    if size < 1:
        raise ValueError("subset size must be >= 1")
    take = min(size, pool_ids.size)
    return rng.choice(pool_ids, size=take, replace=False)


def select_top_k(sample_ids, uncertainty, k: int) -> np.ndarray:
    """The k ids of largest uncertainty, ties broken by ascending sample id.

    ``uncertainty`` is oriented so that larger means more uncertain.
    Output is ordered most-uncertain first.  Asking for more than is
    available returns everything with a warning.  A NaN uncertainty
    raises ValueError naming the first sample id that has one.
    """
    ids = np.asarray(sample_ids)
    u = np.asarray(uncertainty, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    if ids.size == 0:
        raise ValueError("no scores given")
    if u.shape != ids.shape:
        raise ValueError(f"{u.size} scores for {ids.size} sample ids")
    nan = np.flatnonzero(np.isnan(u))
    if nan.size:
        raise ValueError(f"NaN score for sample id {ids[nan[0]]}")
    if k > ids.size:
        warnings.warn(f"requested k={k} > {ids.size} scored samples; returning all")
    if k < ids.size:
        # Only ids at or above the k-th largest value, ties at it included, need sorting.
        kth = u[np.argpartition(-u, k - 1)[k - 1]]
        keep = np.flatnonzero(u >= kth)
        ids, u = ids[keep], u[keep]
    return ids[np.lexsort((ids, -u))[:k]]


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
        selected.append(int(ids[0]))
        chosen[0] = True
        diff = feats - feats[0]
        min_dist = np.sqrt((diff * diff).sum(axis=1))
    else:
        labeled_feats = np.atleast_2d(labeled_feats)
        # Row chunks of the (n, m, d) difference tensor, so memory stays
        # bounded by KCENTER_CHUNK_FLOATS whatever the pool size.
        min_dist = np.empty(n)
        step = max(1, KCENTER_CHUNK_FLOATS // labeled_feats.size)
        for lo in range(0, n, step):
            d2 = ((feats[lo : lo + step, None, :] - labeled_feats[None, :, :]) ** 2).sum(axis=2)
            min_dist[lo : lo + step] = np.sqrt(d2.min(axis=1))

    while len(selected) < k:
        masked = np.where(chosen, -np.inf, min_dist)
        pick = int(np.argmax(masked))
        selected.append(int(ids[pick]))
        chosen[pick] = True
        diff = feats - feats[pick]
        min_dist = np.minimum(min_dist, np.sqrt((diff * diff).sum(axis=1)))
    return selected
