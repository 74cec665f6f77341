"""Shared numerical helpers: stable softmax family, the KL divergence, and
the one CSV artifact writer.

The numerical helpers write no argument: they work in place only on arrays
they made, by the ufuncs and in the order of the plain expressions."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# Floor applied to probabilities before any log; keeps -log finite while
# biasing results by less than 1e-12 in double precision.
PROB_FLOOR = 1e-12


def max_along(z: np.ndarray, axis: int) -> np.ndarray:
    """``z.max(axis=axis, keepdims=True)``, bit for bit, by one
    ``np.maximum`` reduce over a copy with ``axis`` first.

    ``ndarray.max`` over a short last axis pays numpy's per-row overhead
    (about 45 ns an 8-class row); the copy makes the rows columns that one
    elementwise pass walks.  A max is exact, so the order of comparisons
    cannot change its value; NaN propagates either way, and an empty
    ``axis`` raises the same ValueError.
    """
    return np.maximum.reduce(z.swapaxes(axis, 0).copy(), axis=0, keepdims=True).swapaxes(axis, 0)


def _shifted_exp_sum(z: np.ndarray, axis: int):
    """``z`` minus its max, the exp of that, and the exp's sum, along ``axis``."""
    z = np.asarray(z, dtype=np.float64)
    # A -0.0/+0.0 tie for the max can only flip the sign of a zero in
    # ``shifted``: exp maps both to 1, and the tie puts two 1s into the sum,
    # so log(total) >= log 2 hides the sign from the log-softmax too.
    shifted = z - max_along(z, axis)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=axis, keepdims=True)


def stable_softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with the max subtracted first so exp never overflows."""
    _, e, total = _shifted_exp_sum(z, axis)
    e /= total
    return e


def softmax_and_log_softmax(z: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """``stable_softmax(z)`` and log(softmax(z)) by the log-sum-exp identity
    (no flooring), from one shift, exp and sum."""
    shifted, e, total = _shifted_exp_sum(z, axis)
    e /= total
    shifted -= np.log(total)
    return e, shifted


def kl_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise KL(q || p) in nats over the last axis of ``q``'s shape, to
    which ``p`` must broadcast; 0*log(0/p) = 0 and both sides floored at
    1e-12 inside the log."""
    q = np.asarray(q, dtype=np.float64)
    p = np.maximum(np.asarray(p, dtype=np.float64), PROB_FLOOR)
    # q * log(max(q, floor) / p) where q > 0, else 0
    terms = np.maximum(q, PROB_FLOOR)
    terms /= p
    np.log(terms, out=terms)
    terms *= q
    terms[~(q > 0)] = 0.0
    return terms.sum(axis=-1)


def write_csv(path, header, rows) -> None:
    """Make the file's directory, then write the CSV artifact: ``header``, then ``rows``.

    This is the one cell format of every artifact: a ``float`` is written
    as its ``repr`` (exact round trip), a ``bool`` as 0/1, anything else
    as ``str``.  Cells are matched by exact type, so build rows with
    ``.tolist()``, not from numpy scalars.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(
            [repr(v) if type(v) is float else int(v) if type(v) is bool else str(v) for v in row]
            for row in rows
        )
