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

    @classmethod
    def from_params(cls, params: list[np.ndarray]) -> "HeadState":
        return cls(list(params[0:-2:2]), list(params[1:-2:2]), params[-2], params[-1])


@dataclass
class HeadCache:
    """Intermediates of a batched head forward pass, kept for backprop."""

    taps: list[np.ndarray]
    concat: np.ndarray


def init_head(tap_dims: list[int], n_classes: int, reduce_dim: int, seed: int) -> HeadState:
    """He-initialized tap reductions, a Xavier output layer, zero biases."""
    rng = np.random.default_rng(seed)
    rw, rb = [], []
    for d in tap_dims:
        rw.append(rng.normal(0.0, np.sqrt(2.0 / d), size=(reduce_dim, d)))
        rb.append(np.zeros(reduce_dim))
    total = reduce_dim * len(tap_dims)
    out_w = rng.normal(0.0, np.sqrt(1.0 / total), size=(n_classes, total))
    return HeadState(rw, rb, out_w, np.zeros(n_classes))


def head_forward_batch(head: HeadState, taps: list[np.ndarray]) -> tuple[np.ndarray, HeadCache]:
    """Batched head pass: returns (probs (B, C), cache)."""
    if len(taps) != len(head.reduce_weights):
        raise ValueError(f"expected {len(head.reduce_weights)} taps, got {len(taps)}")
    taps = [np.atleast_2d(np.asarray(t, dtype=np.float64)) for t in taps]
    pre = []
    for t, w, b in zip(taps, head.reduce_weights, head.reduce_biases):
        if t.shape[1] != w.shape[1]:
            raise ValueError(f"tap dim {t.shape[1]} != expected {w.shape[1]}")
        pre.append(t @ w.T + b)
    concat = relu(np.concatenate(pre, axis=1))
    logits = concat @ head.out_weight.T + head.out_bias
    probs = stable_softmax(logits, axis=1)
    return probs, HeadCache(taps, concat)


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
    for j, (t, w) in enumerate(zip(cache.taps, head.reduce_weights)):
        cols = slice(j * r, (j + 1) * r)
        # relu(s) > 0 exactly where s > 0
        dS = dconcat[:, cols] * (cache.concat[:, cols] > 0)
        head_grads.append(dS.T @ t)
        head_grads.append(dS.sum(axis=0))
        tap_grads.append(dS @ w)
    head_grads.append(dWo)
    head_grads.append(dbo)
    return head_grads, tap_grads
