"""Selection rules: random subsets, top-k by score, k-center greedy."""

from __future__ import annotations

import warnings

import numpy as np

# Float64 entries k-center's first stage holds at about one time (8 MB).
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
    Non-finite features and a labeled width unequal to the unlabeled
    one raise ValueError.

    The distance to the nearest labeled point is exactly
    ``sqrt(min_j ((a - b_j) ** 2).sum())``, bit for bit.  Gram values
    ``g = |a|^2 - 2 a.b + |b|^2`` (one BLAS call per chunk) only choose
    which labeled points to evaluate that way: every ``b_j`` with
    ``g_j <= min g + 2E`` is kept, where
    ``E = (4d + 20) u (|a|^2 + max_j |b_j|^2) + 8 d eta`` bounds
    ``|g_j - ((a - b_j) ** 2).sum()|`` for every column (see
    ``_gram_error_bound``; u = 2**-53, eta = 2**-1074, d the width), so
    the column of the exact minimum is always kept.  Kept pairs are
    recomputed with the same contiguous last-axis reduction, so each
    gives the bits the full (n, m, d) form gives.  A row whose squared
    norms come within a factor 4 of overflow, every row with a
    non-finite Gram value among them, keeps every column.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    unlabeled_feats = np.atleast_2d(np.asarray(unlabeled_feats, dtype=np.float64))
    unlabeled_ids = np.asarray(unlabeled_ids)
    if unlabeled_feats.shape[0] != unlabeled_ids.shape[0]:
        raise ValueError("unlabeled features and ids length mismatch")
    bad = np.flatnonzero(~np.isfinite(unlabeled_feats).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite feature for sample id {unlabeled_ids[bad[0]]}")
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
    min_dist = np.full(n, np.inf)
    if labeled_feats.size:
        labeled_feats = np.atleast_2d(labeled_feats)
        if labeled_feats.shape[1] != feats.shape[1]:
            raise ValueError(f"labeled features have width {labeled_feats.shape[1]}, "
                             f"unlabeled features width {feats.shape[1]}")
        bad = np.flatnonzero(~np.isfinite(labeled_feats).all(axis=1))
        if bad.size:
            raise ValueError(f"non-finite feature in labeled row {bad[0]}")
        min_dist = np.sqrt(_nearest_sq_dist(feats, labeled_feats))

    while len(selected) < k:
        masked = np.where(chosen, -np.inf, min_dist)
        pick = int(np.argmax(masked))
        selected.append(int(ids[pick]))
        chosen[pick] = True
        diff = feats - feats[pick]
        min_dist = np.minimum(min_dist, np.sqrt((diff * diff).sum(axis=1)))
    return selected


def _gram_error_bound(sq_norms: np.ndarray, max_labeled_sq_norm: float, width: int) -> np.ndarray:
    """Per row a, an E with ``|g - r| <= E`` for every labeled row b, where
    ``g = (|a|^2 - 2 a.b) + |b|^2`` as ``_candidate_pairs`` evaluates it
    and ``r = ((a - b) ** 2).sum()``, both in float64.

    Notation (Higham 2002, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3): u = 2**-53, gamma_k = k u / (1 - k u),
    eta = 2**-1074, d = width; for one pair the exact values are
    A = |a|^2, B = |b|^2, P = a.b, D = |a - b|^2 = A + B - 2P and
    S = A + B.  A product that underflows is off by at most eta / 2
    more; sums and differences of subnormals are exact.

    - The computed norms and dot product, in any summation order and with
      or without FMA (eq. 3.5), are off by at most gamma_d A + d eta,
      gamma_d B + d eta and gamma_d sum|a_i b_i| + d eta
      <= gamma_d S / 2 + d eta.  Hence |a|^2 - 2 a.b + |b|^2 before its
      own rounding is within 2 gamma_d S + 4 d eta of D.
    - Times 2 is exact.  The two additions act on magnitudes at most
      2 (1 + gamma_d) S + 3 d eta and 3 (1 + gamma_d) S + 4 d eta, so they
      add at most 6 u (1 + gamma_d) S + d eta:
      |g - D| <= (2 gamma_d + 6 u (1 + gamma_d)) S + 5 d eta.
    - r rounds each difference, each square and d - 1 sums:
      |r - D| <= gamma_{d+2} D + d eta <= 2 gamma_{d+2} S + d eta, as D <= 2S.
    - Together |g - r| <= (4 gamma_{d+2} + 6 u (1 + gamma_d)) S + 6 d eta
      <= (4d + 15) u S + 6 d eta for d <= 10**7.

    With E at least this for every column of a row, the column j* of the
    least r has g_j* <= r_j* + E <= r_j0 + E <= g_j0 + 2E, j0 being the
    column of the least g; so ``g <= min g + 2E`` keeps j*, ties included.
    The caller rounds ``min g + 2E``, which can lose u |min g + 2E|
    <= u (2S + 3E), as |min g| <= 2S + E: one more u S in E, and a factor
    1 + 2u.  S is bounded through the computed norms:
    (1 - gamma_d) S <= |a|^2 + max|b|^2 + 2 d eta.  The E returned,
    (4d + 20) u (|a|^2 + max|b|^2) + 8 d eta, covers (4d + 16) u S
    + 6 d eta with room for these factors and for its own three roundings.
    """
    return (4 * width + 20) * 2.0**-53 * (sq_norms + max_labeled_sq_norm) + 8 * width * 2.0**-1074


def _candidate_pairs(x: np.ndarray, labeled: np.ndarray):
    """Yield blocks (rows of x, rows of labeled) of pairs that hold, for every
    row of x, the labeled row nearest to it under ``((a - b) ** 2).sum()``.

    A row chunk of the Gram matrix holds half of KCENTER_CHUNK_FLOATS
    entries and each array of a block's features a quarter, so memory stays
    near KCENTER_CHUNK_FLOATS floats whatever the pool size.
    """
    m, d = labeled.shape
    with np.errstate(over="ignore", invalid="ignore"):
        x_sq = (x * x).sum(axis=1)
        lab_sq = (labeled * labeled).sum(axis=1)
        lab_max = lab_sq.max()
        slack = 2 * _gram_error_bound(x_sq, lab_max, d)
        # Below this no sum in _gram_error_bound's analysis can overflow.
        near_overflow = ~np.isfinite(4 * (x_sq + lab_max))
    step = max(1, KCENTER_CHUNK_FLOATS // (2 * m))
    block = max(1, KCENTER_CHUNK_FLOATS // (4 * d))
    for lo in range(0, x.shape[0], step):
        with np.errstate(over="ignore", invalid="ignore"):
            g = x[lo : lo + step] @ labeled.T
            g *= -2.0
            g += x_sq[lo : lo + step, None]
            g += lab_sq
            keep = g <= (g.min(axis=1) + slack[lo : lo + step])[:, None]
        del g  # before the pair blocks, so one chunk is alive at a time
        keep[near_overflow[lo : lo + step]] = True
        kept = np.flatnonzero(keep)
        for b in range(0, kept.size, block):
            rows, cols = np.divmod(kept[b : b + block], m)
            yield rows + lo, cols


def _nearest_sq_dist(x: np.ndarray, labeled: np.ndarray) -> np.ndarray:
    """``min_j ((x[i] - labeled[j]) ** 2).sum()`` for each row i, equal bit
    for bit to the full (n, m, d) form, evaluated at candidate pairs only."""
    best = np.full(x.shape[0], np.inf)
    for rows, cols in _candidate_pairs(x, labeled):
        np.minimum.at(best, rows, ((x[rows] - labeled[cols]) ** 2).sum(axis=-1))
    return best
