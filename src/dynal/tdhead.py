"""Dynamics-prediction head: tap activations -> predicted mean probability.

Each classifier tap is reduced by an affine map plus relu to a fixed
dimension, the reduced vectors are concatenated, and a single affine
layer followed by softmax produces a C-dimensional prediction of the
per-sample running-mean probability vector.  The head is trained by
minimizing KL(target || prediction), as part of netcore's joint loss.
``_forward`` is the unchecked forward pass of netcore's training kernel,
and ``head_forward_batch`` wraps it with a check of its inputs;
``head_backward`` is the kernel's one backward pass, called each step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numutil import relu, stable_softmax


@dataclass
class HeadConfig:
    """The head's width: the ``head:`` config section."""

    reduce_dim: int = 16


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


def head_forward_batch(head: HeadState, taps: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Batched head pass: returns (probs (B, C), relu concat that ``head_backward`` reads)."""
    taps = [np.atleast_2d(np.asarray(t, dtype=np.float64)) for t in taps]
    check_taps(head, [t.shape[1] for t in taps])
    concat, probs = _forward(head, taps)
    return probs, concat


def check_taps(head: HeadState, tap_dims: list[int]) -> None:
    """ValueError unless ``head`` reads taps of widths ``tap_dims``, in order."""
    if len(tap_dims) != len(head.reduce_weights):
        raise ValueError(f"expected {len(head.reduce_weights)} taps, got {len(tap_dims)}")
    for d, w in zip(tap_dims, head.reduce_weights):
        if d != w.shape[1]:
            raise ValueError(f"tap dim {d} != expected {w.shape[1]}")


def _forward(head: HeadState, taps: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(relu concat of the tap reductions, probs) of checked (B, dim) float64 taps."""
    pre = [t @ w.T + b for t, w, b in zip(taps, head.reduce_weights, head.reduce_biases)]
    concat = relu(np.concatenate(pre, axis=1))
    logits = concat @ head.out_weight.T + head.out_bias
    return concat, stable_softmax(logits, axis=1)


def head_backward(head: HeadState, taps, concat, dlogits, out: HeadState) -> list[np.ndarray]:
    """Backprop dlogits through the head, writing its parameter gradients
    into ``out``'s arrays; returns the gradient reaching each tap."""
    np.matmul(dlogits.T, concat, out=out.out_weight)
    dlogits.sum(axis=0, out=out.out_bias)
    dconcat = dlogits @ head.out_weight
    r = head.reduce_weights[0].shape[0]
    tap_grads = []
    for j, (t, w) in enumerate(zip(taps, head.reduce_weights)):
        cols = slice(j * r, (j + 1) * r)
        # relu(s) > 0 exactly where s > 0
        dS = dconcat[:, cols] * (concat[:, cols] > 0)
        np.matmul(dS.T, t, out=out.reduce_weights[j])
        dS.sum(axis=0, out=out.reduce_biases[j])
        tap_grads.append(dS @ w)
    return tap_grads
