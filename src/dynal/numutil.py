"""Shared numerical helpers: the one check that indices are integers,
stable softmax, the KL divergence, a sum over the first axis in numpy's
reduce order, and the one CSV artifact writer.

The numerical helpers write no argument: they work in place only on arrays
they made, by the ufuncs and in the order of the plain expressions."""

from __future__ import annotations

import csv
import re
from itertools import chain
from pathlib import Path

import numpy as np

# Floor applied to probabilities before any log; keeps -log finite while
# biasing results by less than 1e-12 in double precision.
PROB_FLOOR = 1e-12
# Rows that write_csv renders into one string and writes at once.
CSV_BLOCK_ROWS = 1024
# The characters for which csv's minimal quoting quotes a cell.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def index_rows(rows, what: str = "row") -> np.ndarray:
    """``rows`` as an intp array; a ValueError naming the first ``what`` of
    an array of any other kind, such as floats or bools, which a cast would
    turn into indices (2.5 into 2, True into 1).  An empty ``rows`` is no
    rows, whatever its dtype."""
    rows = np.asarray(rows)
    if rows.size and rows.dtype.kind not in "iu":
        raise ValueError(f"{what} {rows.flat[:1].tolist()[0]!r} is not an integer")
    return rows.astype(np.intp, copy=False)


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




def sum_first(a: np.ndarray) -> np.ndarray:
    """The float64 sum over axis 0 with the bits of numpy's reduce along a
    1-D axis: element ``i`` equals ``a[:, i].sum()``, but is formed by
    elementwise adds of whole ``a[j]`` slices in the order of numpy's
    pairwise sum.  ``a.sum(axis=0)`` on a C-ordered array adds the rows in
    sequence instead, and ``a.sum(axis=-1)`` over many short rows pays
    numpy's per-row overhead; this pays one ufunc call per add.

    The order: below 8 items, add them in turn from -0.0; up to 128, keep 8
    accumulators (item ``j`` into accumulator ``j % 8``), add them as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and then the last ``n % 8``
    items in turn; above 128, add the sums of two halves, the first rounded
    down to a multiple of 8.  Last, add 0.0, the reduce's identity (it
    makes a sum of -0.0 items +0.0).
    """
    res = _pairwise_sum(a)
    res += 0.0
    return res


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """numpy's ``pairwise_sum`` of ``a``'s items along axis 0, in a fresh array."""
    n = len(a)
    if n < 8:
        res = np.full(a.shape[1:], -0.0)
        for x in a:
            res += x
        return res
    if n > 128:
        n2 = n // 2
        n2 -= n2 % 8
        res = _pairwise_sum(a[:n2])
        res += _pairwise_sum(a[n2:])
        return res
    r = list(a[:8])
    for i in range(8, n - n % 8, 8):
        r = [x + y for x, y in zip(r, a[i : i + 8])]
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in a[n - n % 8 :]:
        res += x
    return res


def _csv_cell(v, alone: bool) -> str:
    """One cell by write_csv's rule, quoted as ``csv``'s minimal quoting
    quotes it; ``alone``: the cell is its row's only one, where ``csv``
    quotes an empty string."""
    s = repr(v) if type(v) is float else str(int(v)) if type(v) is bool else str(v)
    return '"' + s.replace('"', '""') + '"' if _NEEDS_QUOTES.search(s) or (alone and not s) else s


def _csv_column(col: tuple, alone: bool):
    """``col``, a block's cells of one column, as write_csv writes them:
    ``col`` itself where ``%s`` writes every cell so (exact floats and ints,
    and strings that need no quotes), else each cell by ``_csv_cell``."""
    types = set(map(type, col))
    if types <= {float, int} or (types == {str} and not _NEEDS_QUOTES.search("".join(col))
                                 and not (alone and "" in col)):
        return col
    return [_csv_cell(v, alone) for v in col]


def write_csv(path, header, rows) -> None:
    """Make the file's directory, then write the CSV artifact: ``header``, then ``rows``.

    This is the one cell format of every artifact: a ``float`` is written
    as its ``repr`` (exact round trip), a ``bool`` as 0/1, anything else
    as ``str``, each quoted as ``csv.writer``'s default dialect quotes it
    (the header goes through that writer).  Cells are matched by exact type,
    so build rows with ``.tolist()``, not from numpy scalars.  Every row
    must have the header's length (ValueError otherwise, before anything is
    made).

    Rows are written in blocks of CSV_BLOCK_ROWS, each rendered by one
    ``%`` format of ``"%s,...,%s\\r\\n"`` repeated per row.  Only the
    columns of a block that hold a cell ``%s`` would not write as the rule
    says (a ``bool``, a string that needs quotes, any other type) are
    converted cell by cell first.
    """
    n = len(header)
    if not isinstance(rows, list):
        rows = list(rows)
    if set(map(len, rows)) - {n}:
        i = next(i for i, row in enumerate(rows) if len(row) != n)
        raise ValueError(f"{path}: row {i} has {len(rows[i])} cells, the header {n}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    row_format = ",".join(["%s"] * n) + "\r\n"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerow(header)
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start : start + CSV_BLOCK_ROWS]
            cols = [_csv_column(col, n == 1) for col in zip(*block)]
            f.write(row_format * len(block) % tuple(chain.from_iterable(zip(*cols))))
