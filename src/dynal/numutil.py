"""Shared numerical helpers: stable softmax family and the KL divergence."""

from __future__ import annotations

import numpy as np

# Floor applied to probabilities before any log; keeps -log finite while
# biasing results by less than 1e-12 in double precision.
PROB_FLOOR = 1e-12


def stable_softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with the max subtracted first so exp never overflows."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(softmax(z)) computed via the log-sum-exp identity (no flooring)."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - np.max(z, axis=axis, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    return shifted - lse


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def kl_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise KL(q || p) in nats over the last axis; 0*log(0/p) = 0 and
    both sides floored at 1e-12 inside the log."""
    q = np.asarray(q, dtype=np.float64)
    p = np.maximum(np.asarray(p, dtype=np.float64), PROB_FLOOR)
    terms = np.where(q > 0, q * np.log(np.maximum(q, PROB_FLOOR) / p), 0.0)
    return terms.sum(axis=-1)
