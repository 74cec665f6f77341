"""Dynamics-prediction head: tap activations -> predicted mean probability.

Each classifier tap is reduced by an affine map plus relu to a fixed
dimension, the reduced vectors are concatenated (each tap's product is
written into its column block of one array), and a single affine layer
followed by softmax produces a C-dimensional prediction of the
per-sample running-mean probability vector.  The head is trained by
minimizing KL(target || prediction), as part of netcore's joint loss.
The head is a ``netcore.NetState``, as the classifier is: one reduction
layer per tap, in tap order, then the layer from the relu concat to logits.
``head_forward_batch`` checks its inputs and runs the forward pass:
``_relu_concat``, then the last layer and a softmax.  netcore's training
kernel calls ``_relu_concat`` alone and writes the head's logits next to
the net's, for one softmax pass over both.  ``head_backward`` is the
kernel's one backward pass, called each step: it writes the head's
gradient into a ``netcore.Joint``'s ``grad_head``, applies the relu mask
to the whole concat's gradient at once and reads each tap's block of it
as a view.  All of them take a head with a leading run axis
(``netcore.flatten``'s ``runs``) and taps with the same axis, as the
kernel does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import netcore
from .numutil import stable_softmax


@dataclass
class HeadConfig:
    """The head's width: the ``head:`` config section; checked when built."""

    reduce_dim: int = 16

    def __post_init__(self):
        if self.reduce_dim < 1:
            raise ValueError("reduce_dim must be >= 1")


def init_head(tap_dims: list[int], n_classes: int, reduce_dim: int, seed: int) -> netcore.NetState:
    """He-initialized tap reductions, a Xavier output layer, zero biases."""
    rng = np.random.default_rng(seed)
    weights = [rng.normal(0.0, np.sqrt(2.0 / d), size=(reduce_dim, d)) for d in tap_dims]
    total = reduce_dim * len(tap_dims)
    weights.append(rng.normal(0.0, np.sqrt(1.0 / total), size=(n_classes, total)))
    return netcore.NetState(weights, [np.zeros(w.shape[0]) for w in weights])


def head_forward_batch(head: netcore.NetState,
                       taps: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Batched head pass: returns (probs (B, C), relu concat).  No caller in
    the package reads the concat: training's ``head_backward`` reads the
    one ``netcore._joint_forward`` makes.  ROADMAP item 3 deletes it,
    together with the change to the benchmark code that indexes this pair."""
    taps = [np.atleast_2d(np.asarray(t, dtype=np.float64)) for t in taps]
    check_taps(head, [t.shape[-1] for t in taps])
    concat = _relu_concat(head, taps)
    return stable_softmax(netcore._affine(concat, head.weights[-1], head.biases[-1]),
                          axis=-1), concat


def check_taps(head: netcore.NetState, tap_dims: list[int]) -> None:
    """ValueError unless ``head`` reads taps of widths ``tap_dims``, in order."""
    if len(tap_dims) != len(head.weights) - 1:
        raise ValueError(f"expected {len(head.weights) - 1} taps, got {len(tap_dims)}")
    for d, w in zip(tap_dims, head.weights[:-1]):
        if d != w.shape[-1]:
            raise ValueError(f"tap dim {d} != expected {w.shape[-1]}")


def _relu_concat(head: netcore.NetState, taps: list[np.ndarray]) -> np.ndarray:
    """The relu concat of the tap reductions, the input of the head's last layer.

    Each tap's product is written into its column block of one array; the
    concatenated reduction biases are added over it and relu applied, in
    place.  The bits are those of the per-tap affine maps concatenated:
    BLAS writes a block at the array's leading dimension the products it
    would write alone."""
    reduce_w = head.weights[:-1]
    r = reduce_w[0].shape[-2]
    concat = np.empty((*taps[0].shape[:-1], r * len(taps)))
    for j, (t, w) in enumerate(zip(taps, reduce_w)):
        np.matmul(t, w.mT, out=concat[..., j * r : (j + 1) * r])
    concat += np.concatenate(head.biases[:-1], axis=-1)[..., None, :]
    return netcore._act(concat, "relu")


def head_backward(head: netcore.NetState, taps, concat, dlogits,
                  out: netcore.NetState) -> list[np.ndarray]:
    """Backprop dlogits through the head, writing its parameter gradients
    into ``out``'s arrays; returns the gradient reaching each tap."""
    np.matmul(dlogits.mT, concat, out=out.weights[-1])
    dlogits.sum(axis=-2, out=out.biases[-1])
    dconcat = dlogits @ head.weights[-1]
    # relu(s) > 0 exactly where s > 0; one mask for every tap's block
    dconcat *= concat > 0
    r = head.weights[0].shape[-2]
    tap_grads = []
    for j, (t, w) in enumerate(zip(taps, head.weights[:-1])):
        dS = dconcat[..., j * r : (j + 1) * r]
        np.matmul(dS.mT, t, out=out.weights[j])
        dS.sum(axis=-2, out=out.biases[j])
        tap_grads.append(dS @ w)
    return tap_grads
