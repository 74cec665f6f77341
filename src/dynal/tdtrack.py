"""Per-sample training dynamics: running means of predicted probabilities.

A store holds, for every row of the dataset it was built for, the
arithmetic mean of the probability vectors that row received across
training epochs (one update per epoch) and the number of updates.
Rows are positions in that dataset, not sample ids.  A store can hold
the means of several runs trained in lockstep on the rows of one
permutation, behind a leading run axis; they share their counts.
"""

from __future__ import annotations

import copy

import numpy as np


class TDStore:
    """Dense running means: ``mean`` (*runs, n_rows, C) and ``count`` (n_rows,)."""

    def __init__(self, n_rows: int, n_classes: int, runs: tuple[int, ...] = ()):
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        self.mean = np.zeros((*runs, n_rows, n_classes))
        self.count = np.zeros(n_rows, dtype=np.int64)

    def update_batch(self, rows, probs: np.ndarray) -> np.ndarray:
        """Fold one probability vector into each row's running mean.

        The rows of one call must be distinct; afterwards each mean equals
        the arithmetic mean of all vectors that row was fed so far.
        ``probs`` is (*runs, n, C), one vector per run and row.  Returns the
        rows' updated means, (*runs, n, C), equal to ``values(rows)``.
        """
        rows = np.asarray(rows, dtype=np.intp)
        probs = np.asarray(probs, dtype=np.float64)
        want = (*self.mean.shape[:-2], rows.size, self.mean.shape[-1])
        if probs.shape != want:
            raise ValueError(f"probs shape {probs.shape} != {want}")
        ordered = np.sort(rows, axis=None)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("duplicate rows in one update")
        t = self.count[rows] + 1
        m = self.mean[..., rows, :]
        # m + (probs - m) / t, into the gathered copy
        d = probs - m
        d /= t[:, None]
        m += d
        self.mean[..., rows, :] = m
        self.count[rows] = t
        return m

    def values(self, rows) -> np.ndarray:
        """(*runs, n, C) running means of the given rows; a state error for a
        row that was never updated."""
        rows = np.asarray(rows, dtype=np.intp)
        fresh = np.flatnonzero(self.count[rows] < 1)
        if fresh.size:
            raise RuntimeError(f"row {rows[fresh[0]]} has no td mean before its first update")
        return self.mean[..., rows, :]

    def run(self, r: int) -> "TDStore":
        """Run ``r`` of a store with a leading run axis: its means as a view,
        the shared counts as a copy."""
        store = copy.copy(self)
        store.mean, store.count = self.mean[r], self.count.copy()
        return store
