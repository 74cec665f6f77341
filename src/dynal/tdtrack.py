"""Per-sample training dynamics: running means of predicted probabilities.

A store holds, for every row of the dataset it was built for, the
arithmetic mean of the probability vectors that row received across
training epochs (one update per epoch) and the number of updates.
Rows are positions in that dataset, not sample ids.  A store can hold
the means of several runs trained in lockstep on the rows of one
permutation, behind a leading run axis; they share their counts.

Inside ``epoch(perm)`` the store holds its means and counts in that
epoch's order, ``perm``, so a training step folds its batch, a ``range``
of that order, into a contiguous slice in place: no sort, gather or
scatter per step.  The epoch gathers the means into its order when it
opens and writes them back to dataset order when it closes.  Index rows
(``update_batch``, ``values``) and ``run`` keep their dataset-row meaning
throughout.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager

import numpy as np


class TDStore:
    """Dense running means: ``mean`` (*runs, n_rows, C) and ``count``
    (n_rows,), in dataset row order but inside an ``epoch``, where they
    are in the epoch's order; ``by_row`` reads them in dataset order."""

    def __init__(self, n_rows: int, n_classes: int, runs: tuple[int, ...] = ()):
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        self.mean = np.zeros((*runs, n_rows, n_classes))
        self.count = np.zeros(n_rows, dtype=np.int64)
        self._at = None  # inside an epoch: each dataset row's position in ``mean``

    @contextmanager
    def epoch(self, perm):
        """Hold the means in the order ``perm``, a permutation of the rows,
        until the block ends; a ValueError for any other ``perm``."""
        if self._at is not None:
            raise RuntimeError("an epoch is already open")
        perm = _index_rows(perm)
        n = self.count.size
        at = np.argsort(perm)  # the inverse of a permutation
        if perm.shape != (n,) or not np.array_equal(perm[at], np.arange(n)):
            raise ValueError(f"epoch order is not a permutation of the store's {n} rows")
        self.mean, self.count, self._at = self.mean.take(perm, axis=-2), self.count[perm], at
        try:
            yield
        finally:
            self.mean, self.count, self._at = self.mean.take(at, axis=-2), self.count[at], None

    def update_batch(self, rows, probs: np.ndarray) -> np.ndarray:
        """Fold one probability vector into each row's running mean.

        ``rows`` is a ``range`` of step 1 over the store's order (inside an
        epoch, the epoch's positions; else dataset rows), or dataset rows
        as indices, distinct within one call.  Afterwards each mean equals
        the arithmetic mean of all vectors that row was fed so far.
        ``probs`` is (*runs, n, C), one vector per run and row.  Returns the
        rows' updated means, (*runs, n, C): for a range, a view of the
        store's, which the next fold of those rows changes; for indices, a
        copy.  A row outside the store, or an index row that is not an
        integer, is a ValueError.
        """
        probs = np.asarray(probs, dtype=np.float64)
        want = (*self.mean.shape[:-2], len(rows), self.mean.shape[-1])
        if probs.shape != want:
            raise ValueError(f"probs shape {probs.shape} != {want}")
        span = type(rows) is range
        if span:
            n = self.count.size
            if rows.step != 1:
                raise ValueError("a range of rows must have step 1")
            if rows and (rows.start < 0 or rows.stop > n):
                bad = rows.start if not 0 <= rows.start < n else n
                raise ValueError(f"row {bad} outside the store's {n} rows")
            at = slice(rows.start, rows.stop)
        else:
            rows = _index_rows(rows)
            ordered = np.sort(rows, axis=None)
            if (ordered[1:] == ordered[:-1]).any():
                raise ValueError("duplicate rows in one update")
            at = self._positions(rows)
        t = self.count[at] + 1
        m = self.mean[..., at, :]
        # m + (probs - m) / t: in place in the store for a range, else into the gathered copy
        d = probs - m
        d /= t[:, None]
        m += d
        if not span:
            self.mean[..., at, :] = m
        self.count[at] = t
        return m

    def values(self, rows) -> np.ndarray:
        """(*runs, n, C) running means of the given dataset rows; a state
        error for a row that was never updated, a ValueError for one outside
        the store or not an integer."""
        rows = _index_rows(rows)
        at = self._positions(rows)
        fresh = np.flatnonzero(self.count[at] < 1)
        if fresh.size:
            raise RuntimeError(f"row {rows.flat[fresh[0]]} has no td mean before its first update")
        return self.mean[..., at, :]

    def by_row(self) -> tuple[np.ndarray, np.ndarray]:
        """``(mean, count)`` in dataset row order: the store's own arrays
        outside an epoch, copies inside one."""
        if self._at is None:
            return self.mean, self.count
        return self.mean.take(self._at, axis=-2), self.count[self._at]

    def run(self, r: int) -> "TDStore":
        """Run ``r`` of a store with a leading run axis, in dataset row
        order: its means (a view outside an epoch), the shared counts as a copy."""
        mean, count = self.by_row()
        store = copy.copy(self)
        store.mean, store.count, store._at = mean[r], count.copy(), None
        return store

    def _positions(self, rows: np.ndarray) -> np.ndarray:
        """Where dataset rows ``rows`` are held; a ValueError naming a row outside the store."""
        n = self.count.size
        outside = rows[(rows < 0) | (rows >= n)]
        if outside.size:
            raise ValueError(f"row {outside.flat[0]} outside the store's {n} rows")
        return rows if self._at is None else self._at[rows]


def _index_rows(rows) -> np.ndarray:
    """``rows`` as an intp array; a ValueError naming the first row of an
    array of any other kind, such as floats or bools, which a cast would
    turn into indices (2.5 into 2, True into 1).  An empty ``rows`` is no
    rows, whatever its dtype."""
    rows = np.asarray(rows)
    if rows.size and rows.dtype.kind not in "iu":
        raise ValueError(f"row {rows.flat[0].item()!r} is not an integer")
    return rows.astype(np.intp, copy=False)
