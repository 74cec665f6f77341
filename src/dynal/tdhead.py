"""Dynamics-prediction head: tap activations -> predicted mean probability.

Each classifier tap is reduced by an affine map plus relu to a fixed
dimension, the reduced vectors are concatenated, and a single affine
layer followed by softmax produces a C-dimensional prediction of the
per-sample running-mean probability vector.  The head is trained by
minimizing KL(target || prediction), as part of netcore's joint loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numutil import relu, stable_softmax


@dataclass
class HeadConfig:
    tap_dims: list[int]
    n_classes: int
    reduce_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        if not self.tap_dims or any(d < 1 for d in self.tap_dims):
            raise ValueError("tap_dims must be a non-empty list of positive ints")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.reduce_dim < 1:
            raise ValueError("reduce_dim must be positive")


@dataclass
class HeadState:
    """Per-tap reduction weights plus the final output layer."""

    reduce_weights: list[np.ndarray]
    reduce_biases: list[np.ndarray]
    out_weight: np.ndarray
    out_bias: np.ndarray

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.reduce_weights, self.reduce_biases):
            out.append(w)
            out.append(b)
        out.append(self.out_weight)
        out.append(self.out_bias)
        return out


@dataclass
class HeadCache:
    """Intermediates of a batched head forward pass, kept for backprop."""

    taps: list[np.ndarray]
    reduced_pre: list[np.ndarray]
    reduced: list[np.ndarray]
    concat: np.ndarray
    logits: np.ndarray


def init_head(cfg: HeadConfig) -> HeadState:
    rng = np.random.default_rng(cfg.seed)
    rw, rb = [], []
    for d in cfg.tap_dims:
        rw.append(rng.normal(0.0, np.sqrt(2.0 / d), size=(cfg.reduce_dim, d)))
        rb.append(np.zeros(cfg.reduce_dim))
    total = cfg.reduce_dim * len(cfg.tap_dims)
    out_w = rng.normal(0.0, np.sqrt(1.0 / total), size=(cfg.n_classes, total))
    return HeadState(rw, rb, out_w, np.zeros(cfg.n_classes))


def head_forward_batch(head: HeadState, taps: list[np.ndarray]) -> tuple[np.ndarray, HeadCache]:
    """Batched head pass: returns (probs (B, C), cache)."""
    if len(taps) != len(head.reduce_weights):
        raise ValueError(f"expected {len(head.reduce_weights)} taps, got {len(taps)}")
    taps = [np.atleast_2d(np.asarray(t, dtype=np.float64)) for t in taps]
    pre, red = [], []
    for t, w, b in zip(taps, head.reduce_weights, head.reduce_biases):
        if t.shape[1] != w.shape[1]:
            raise ValueError(f"tap dim {t.shape[1]} != expected {w.shape[1]}")
        s = t @ w.T + b
        pre.append(s)
        red.append(relu(s))
    concat = np.concatenate(red, axis=1)
    logits = concat @ head.out_weight.T + head.out_bias
    probs = stable_softmax(logits, axis=1)
    return probs, HeadCache(taps, pre, red, concat, logits)


def head_backward(
    head: HeadState, cache: HeadCache, dlogits: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Backprop dlogits through the head.

    Returns (head_grads parallel to params(), tap_grads per tap) so the
    caller can continue the chain into the classifier.
    """
    dWo = dlogits.T @ cache.concat
    dbo = dlogits.sum(axis=0)
    dconcat = dlogits @ head.out_weight
    r = head.reduce_weights[0].shape[0]
    head_grads: list[np.ndarray] = []
    tap_grads: list[np.ndarray] = []
    for j, (t, pre, w) in enumerate(zip(cache.taps, cache.reduced_pre, head.reduce_weights)):
        dR = dconcat[:, j * r : (j + 1) * r]
        dS = dR * (pre > 0)
        head_grads.append(dS.T @ t)
        head_grads.append(dS.sum(axis=0))
        tap_grads.append(dS @ w)
    head_grads.append(dWo)
    head_grads.append(dbo)
    return head_grads, tap_grads
