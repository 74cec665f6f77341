"""Minimal feedforward classifier with hand-derived gradients.

A network maps a feature vector through fully connected hidden layers
(relu or tanh) to C logits and a softmax.  Selected hidden activations
("taps") are exposed so the dynamics-prediction head can read
intermediate representations.  All gradients are exact closed forms;
optimization is plain SGD with momentum or Adam, with a one-step
learning-rate decay schedule.

Conventions
-----------
* Weights are ``(fan_out, fan_in)`` matrices, biases ``(fan_out,)``.
* Batches are ``(B, dim)`` arrays; single samples are 1-D.
* Parameter lists are ordered ``[W0, b0, W1, b1, ..., W_out, b_out]``.
* SGD momentum uses ``v = mu * v + g``, ``theta -= lr * v``.
* Weight decay enters as gradient augmentation ``g += wd * theta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tdhead
from .numutil import kl_rows, log_softmax, relu, stable_softmax

ACTIVATIONS = ("relu", "tanh")
OPTIMIZER_KINDS = ("sgd_momentum", "adam")


@dataclass
class NetConfig:
    """Architecture of the classifier.

    ``tap_layers`` lists the hidden-layer indices whose activations are
    forwarded to the dynamics-prediction head.
    """

    input_dim: int
    hidden_sizes: list[int]
    n_classes: int
    tap_layers: list[int] = field(default_factory=lambda: [0])
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be a non-empty list of positive ints")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        n_hidden = len(self.hidden_sizes)
        for t in self.tap_layers:
            if not 0 <= t < n_hidden:
                raise ValueError(f"tap layer {t} out of range for {n_hidden} hidden layers")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_out, fan_in) per layer, output layer last."""
        sizes = [self.input_dim] + list(self.hidden_sizes) + [self.n_classes]
        return [(sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]


@dataclass
class OptimizerConfig:
    kind: str = "sgd_momentum"
    initial_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    decay_epoch: int = 48
    decay_factor: float = 0.1

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"optimizer kind must be one of {OPTIMIZER_KINDS}")
        if self.initial_lr <= 0:
            raise ValueError("initial_lr must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if not 0 < self.decay_factor <= 1:
            raise ValueError("decay_factor must be in (0, 1]")


@dataclass
class OptState:
    """Per-parameter moment buffers for one parameter group."""

    kind: str
    velocities: list[np.ndarray] | None = None  # sgd_momentum
    m: list[np.ndarray] | None = None           # adam first moments
    v: list[np.ndarray] | None = None           # adam second moments
    step: int = 0


def init_opt_state(params: list[np.ndarray], kind: str) -> OptState:
    zeros = lambda: [np.zeros_like(p) for p in params]
    if kind == "sgd_momentum":
        return OptState(kind=kind, velocities=zeros())
    return OptState(kind=kind, m=zeros(), v=zeros())


@dataclass
class NetState:
    """Classifier parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


@dataclass
class BatchTrace:
    """Everything computed by one forward pass of a batch (arrays are (B, dim))."""

    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    logits: np.ndarray
    probs: np.ndarray
    taps: list[np.ndarray]


def init_net(cfg: NetConfig) -> NetState:
    """Seeded He (relu) or Xavier (tanh) initialization, zero biases."""
    rng = np.random.default_rng(cfg.seed)
    gain = 2.0 if cfg.activation == "relu" else 1.0
    weights, biases = [], []
    dims = cfg.layer_dims
    for i, (fan_out, fan_in) in enumerate(dims):
        scale = np.sqrt((gain if i < len(dims) - 1 else 1.0) / fan_in)
        weights.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetState(weights=weights, biases=biases)


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    return relu(z) if kind == "relu" else np.tanh(z)


def _act_deriv(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    # relu'(0) taken as 0
    return (z > 0).astype(np.float64) if kind == "relu" else 1.0 - a * a


def forward_batch(state: NetState, cfg: NetConfig, X: np.ndarray) -> BatchTrace:
    """Forward pass over a (B, input_dim) batch; deterministic."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != cfg.input_dim:
        raise ValueError(f"expected feature dim {cfg.input_dim}, got {X.shape[1]}")
    if not all(np.all(np.isfinite(w)) for w in state.weights):
        raise ValueError("non-finite network parameters")
    n_hidden = len(cfg.hidden_sizes)
    pre, act = [], []
    a = X
    for l in range(n_hidden):
        z = a @ state.weights[l].T + state.biases[l]
        a = _act(z, cfg.activation)
        pre.append(z)
        act.append(a)
    logits = a @ state.weights[-1].T + state.biases[-1]
    probs = stable_softmax(logits, axis=1)
    taps = [act[l] for l in cfg.tap_layers]
    return BatchTrace(pre, act, logits, probs, taps)


def _joint_terms(
    state: NetState,
    cfg: NetConfig,
    head,
    X: np.ndarray,
    y: np.ndarray,
    td_targets: np.ndarray | None,
    trace: BatchTrace | None = None,
) -> tuple[BatchTrace, np.ndarray, np.ndarray, tuple | None]:
    """Per-sample terms of the joint loss, shared by joint_loss and grad_joint.

    Returns ``(trace, cross entropy, KL(target || head), head pass)``; the
    head pass is ``(targets, head probs, head cache)``, or None without
    targets, when the KL is zero.
    """
    if trace is None:
        trace = forward_batch(state, cfg, X)
    B = trace.logits.shape[0]
    y = np.asarray(y, dtype=int)
    if np.any((y < 0) | (y >= cfg.n_classes)):
        raise ValueError(f"class index out of range for {cfg.n_classes} classes")
    per_ce = -log_softmax(trace.logits, axis=1)[np.arange(B), y]
    if td_targets is None:
        return trace, per_ce, np.zeros(B), None
    q = np.asarray(td_targets, dtype=np.float64)
    if q.shape != (B, cfg.n_classes):
        raise ValueError(f"td_targets shape {q.shape} != {(B, cfg.n_classes)}")
    pt, cache = tdhead.head_forward_batch(head, trace.taps)
    return trace, per_ce, kl_rows(q, pt), (q, pt, cache)


def joint_loss(
    state: NetState,
    cfg: NetConfig,
    head,
    X: np.ndarray,
    y: np.ndarray,
    td_targets: np.ndarray | None,
    lam: float,
) -> tuple[float, float]:
    """(batch-mean cross entropy, batch-mean KL) without gradients: the
    finite-difference oracle for grad_joint, on the same loss terms."""
    _, per_ce, per_kl, _ = _joint_terms(state, cfg, head, X, y, td_targets)
    return float(per_ce.mean()), float(per_kl.mean())


def grad_joint(
    state: NetState,
    cfg: NetConfig,
    head,
    X: np.ndarray,
    y: np.ndarray,
    td_targets: np.ndarray | None,
    lam: float,
    detach: bool = False,
    sample_ids: np.ndarray | None = None,
    trace: BatchTrace | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray], float, float]:
    """Exact gradients of ``L_target + lam * L_module`` over one batch.

    Returns ``(net_grads, head_grads, loss_target, loss_module)`` where the
    gradient lists parallel ``state.params()`` and ``head.params()``.  With
    ``detach=True`` the head-loss gradient is cut before it reaches the
    classifier parameters (the head itself still learns).  ``trace`` may
    carry an already-computed forward pass of this exact batch.

    Raises FloatingPointError naming the offending sample id if any
    per-sample loss is non-finite.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=int)
    B = X.shape[0]
    trace, per_ce, per_kl, head_pass = _joint_terms(state, cfg, head, X, y, td_targets, trace)
    per_total = per_ce + lam * per_kl
    if not np.all(np.isfinite(per_total)):
        ids = np.arange(B) if sample_ids is None else np.asarray(sample_ids)
        bad = ids[np.flatnonzero(~np.isfinite(per_total))[0]]
        raise FloatingPointError(f"non-finite loss for sample id {bad}")

    onehot = np.zeros_like(trace.probs)
    onehot[np.arange(B), y] = 1.0
    dlogits = (trace.probs - onehot) / B

    head_grads: list[np.ndarray] = []
    tap_at_layer: dict[int, np.ndarray] = {}
    if head_pass is not None:
        q, pt, cache = head_pass
        # d(lam * mean KL)/d(head logits) = lam * (softmax - target) / B
        dU = lam * (pt - q) / B
        head_grads, tap_grads = tdhead.head_backward(head, cache, dU)
        if not detach:
            for layer, g in zip(cfg.tap_layers, tap_grads):
                tap_at_layer[layer] = tap_at_layer.get(layer, 0.0) + g
    elif head is not None:
        head_grads = [np.zeros_like(p) for p in head.params()]

    n_hidden = len(cfg.hidden_sizes)
    dW = [None] * (n_hidden + 1)
    db = [None] * (n_hidden + 1)
    a_prev = trace.activations[n_hidden - 1]
    dW[-1] = dlogits.T @ a_prev
    db[-1] = dlogits.sum(axis=0)
    dA = dlogits @ state.weights[-1]
    for l in range(n_hidden - 1, -1, -1):
        if l in tap_at_layer:
            dA = dA + tap_at_layer[l]
        dZ = dA * _act_deriv(trace.pre_activations[l], trace.activations[l], cfg.activation)
        a_in = X if l == 0 else trace.activations[l - 1]
        dW[l] = dZ.T @ a_in
        db[l] = dZ.sum(axis=0)
        if l > 0:
            dA = dZ @ state.weights[l]

    net_grads = NetState(dW, db).params()  # the order state.params() uses
    return net_grads, head_grads, float(per_ce.mean()), float(per_kl.mean())


def lr_at(opt: OptimizerConfig, epoch: int) -> float:
    """initial_lr before decay_epoch, initial_lr * decay_factor from it on."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    if epoch < opt.decay_epoch:
        return opt.initial_lr
    return opt.initial_lr * opt.decay_factor


def apply_update(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    opt_state: OptState,
    opt: OptimizerConfig,
    epoch: int,
) -> None:
    """In-place SGD-momentum or Adam update of one parameter group."""
    if len(params) != len(grads):
        raise ValueError("params and grads length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    lr = lr_at(opt, epoch)
    if opt_state.kind == "sgd_momentum":
        for i, (p, g) in enumerate(zip(params, grads)):
            g = g + opt.weight_decay * p
            opt_state.velocities[i] = opt.momentum * opt_state.velocities[i] + g
            p -= lr * opt_state.velocities[i]
    else:
        opt_state.step += 1
        t = opt_state.step
        bc1 = 1.0 - opt.beta1 ** t
        bc2 = 1.0 - opt.beta2 ** t
        for i, (p, g) in enumerate(zip(params, grads)):
            g = g + opt.weight_decay * p
            opt_state.m[i] = opt.beta1 * opt_state.m[i] + (1.0 - opt.beta1) * g
            opt_state.v[i] = opt.beta2 * opt_state.v[i] + (1.0 - opt.beta2) * g * g
            m_hat = opt_state.m[i] / bc1
            v_hat = opt_state.v[i] / bc2
            p -= lr * m_hat / (np.sqrt(v_hat) + opt.epsilon)


# Kept as a second name because benchmark/tracer.py wraps netcore.optimizer_step.
optimizer_step = apply_update
