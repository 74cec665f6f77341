"""Per-sample training dynamics: running means of predicted probabilities.

A store holds, for every row of the dataset it was built for, the
arithmetic mean of the probability vectors that row received across
training epochs, one per epoch, and the number of epochs folded.  Rows
are positions in that dataset, not sample ids.  A store can hold the
means of several runs trained in lockstep on the rows of one permutation,
behind a leading run axis.

The one way to fold is an epoch: inside ``epoch(perm)`` the store holds
its means in that epoch's order, ``perm``, and each ``update_batch``
folds the next range of that order into a contiguous slice in place: no
sort, gather or scatter per step.  An epoch that closes has folded every
row once, so every row's mean is over the same ``epochs`` vectors and
one count divides them all.  The epoch gathers the means into its order
when it opens and writes them back to dataset order when it closes;
``values`` reads them in dataset order, outside an epoch.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .numutil import index_rows


class TDStore:
    """Dense running means ``mean`` (*runs, n_rows, C) over ``epochs``
    epochs: in dataset row order, but inside an ``epoch`` in its order."""

    def __init__(self, n_rows: int, n_classes: int, runs: tuple[int, ...] = ()):
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        self.mean = np.zeros((*runs, n_rows, n_classes))
        self.epochs = 0
        # inside an epoch, the position its next fold starts at; after an epoch that ended
        # by an error, lost: its means are part folded
        self._next, self._lost = None, False

    def _check(self, inside: bool) -> None:
        """A RuntimeError unless an epoch is open, given ``inside``, or else
        none is; and for any call after an epoch that ended by an error."""
        if self._lost or (self._next is not None) != inside:
            raise RuntimeError("an epoch of this store ended by an error" if self._lost else
                               "no epoch is open" if inside else "an epoch is open")

    @contextmanager
    def epoch(self, perm):
        """Fold one epoch in the order ``perm``, a permutation of the rows
        (a ValueError for any other ``perm``): inside the block, the folds
        of ``update_batch`` must cover that order, each the next range of
        it.  A block that ends having folded fewer rows raises a
        RuntimeError.  An epoch ended by an error, that one included,
        leaves the store refusing every later call."""
        self._check(inside=False)
        perm = index_rows(perm)
        n = self.mean.shape[-2]
        at = np.argsort(perm)  # the inverse of a permutation
        if perm.shape != (n,) or not np.array_equal(perm[at], np.arange(n)):
            raise ValueError(f"epoch order is not a permutation of the store's {n} rows")
        self.mean, self._next = self.mean.take(perm, axis=-2), 0
        try:
            yield
            if self._next != n:
                raise RuntimeError(f"the epoch ended after {self._next} of the store's {n} rows")
        except BaseException:
            self._lost = True
            raise
        self.mean, self._next = self.mean.take(at, axis=-2), None
        self.epochs += 1

    def update_batch(self, rows: range, probs: np.ndarray) -> np.ndarray:
        """Fold one probability vector into each row's running mean.

        ``rows`` is the open epoch's next range of positions: step 1,
        starting where the last fold stopped (at 0 first), and within the
        store; any other ``rows`` is a ValueError.  ``probs`` is (*runs, n,
        C), one vector per run and row.  Afterwards each mean equals the
        arithmetic mean of the ``epochs + 1`` vectors its row was fed.
        Returns the rows' updated means, (*runs, n, C): a view of the
        store's, which the next epoch's fold of those rows changes.
        """
        self._check(inside=True)
        n, at = self.mean.shape[-2], self._next
        if type(rows) is not range or rows.step != 1 or not at == rows.start <= rows.stop <= n:
            raise ValueError(f"rows {rows!r} are not the epoch's next range, from {at} to <= {n}")
        want = (*self.mean.shape[:-2], len(rows), self.mean.shape[-1])
        if np.shape(probs) != want:
            raise ValueError(f"probs shape {np.shape(probs)} != {want}")
        m = self.mean[..., rows.start : rows.stop, :]
        # m + (probs - m) / (epochs + 1), in place in the store; probs - m promotes probs
        # to float64
        d = probs - m
        d /= self.epochs + 1
        m += d
        self._next = rows.stop
        return m

    def values(self, rows) -> np.ndarray:
        """(*runs, n, C) running means of the given dataset rows, outside an
        epoch; a ValueError for a row outside the store or not an integer,
        a RuntimeError before the first epoch."""
        self._check(inside=False)
        rows = index_rows(rows)
        n = self.mean.shape[-2]
        outside = rows[(rows < 0) | (rows >= n)]
        if outside.size:
            raise ValueError(f"row {outside.flat[0]} outside the store's {n} rows")
        if not self.epochs:
            raise RuntimeError("the store has no td means before its first epoch")
        return self.mean[..., rows, :]
