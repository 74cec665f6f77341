"""Per-sample training dynamics: running means of predicted probabilities.

A record accumulates the arithmetic mean of the probability vectors a
sample received across training epochs, one update per epoch.  A store
maps sample ids to records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class TDRecord:
    mean: np.ndarray
    t: int = 0


def td_init(n_classes: int) -> TDRecord:
    """Fresh record: zero mean, zero updates."""
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    return TDRecord(mean=np.zeros(n_classes), t=0)


def td_update(rec: TDRecord, p: np.ndarray) -> TDRecord:
    """Fold one probability vector into the running mean.

    Returns a new record; the result equals the arithmetic mean of all
    vectors fed so far.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != rec.mean.shape:
        raise ValueError(f"vector shape {p.shape} != record shape {rec.mean.shape}")
    t = rec.t + 1
    return TDRecord(mean=rec.mean + (p - rec.mean) / t, t=t)


def td_value(rec: TDRecord) -> np.ndarray:
    """The running mean; undefined (state error) before the first update."""
    if rec.t < 1:
        raise RuntimeError("td mean is undefined before the first update")
    return rec.mean


@dataclass
class TDStore:
    """Sample id -> TDRecord."""

    n_classes: int
    records: dict[int, TDRecord] = field(default_factory=dict)

    def update(self, sample_id: int, p: np.ndarray) -> None:
        rec = self.records.get(sample_id)
        if rec is None:
            rec = td_init(self.n_classes)
        self.records[sample_id] = td_update(rec, p)

    def update_batch(self, sample_ids: np.ndarray, probs: np.ndarray) -> None:
        for sid, p in zip(sample_ids, probs):
            self.update(int(sid), p)

    def value(self, sample_id: int) -> np.ndarray:
        rec = self.records.get(sample_id)
        if rec is None:
            raise KeyError(f"no dynamics recorded for sample {sample_id}")
        return td_value(rec)

    def values(self, sample_ids) -> np.ndarray:
        """(n, C) matrix of running means for the given ids."""
        return np.array([self.value(int(s)) for s in sample_ids])

    def counts(self, sample_ids) -> np.ndarray:
        return np.array([self.records[int(s)].t if int(s) in self.records else 0 for s in sample_ids])
