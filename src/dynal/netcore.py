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
* ``params()`` lists ``[W0, b0, W1, b1, ..., W_out, b_out]``; each state's
  ``from_params`` is its inverse.
* Training holds all parameters in one contiguous float64 vector ``theta``
  (``flatten``): ``net.params() + head.params()`` raveled end to end, the
  states' arrays being views into it.  Only this module knows that layout:
  ``grad_joint`` returns one gradient vector in it and the optimizer moments
  share it.  ``apply_update``, the one place parameters change, rejects a
  step that leaves ``theta`` non-finite with the FloatingPointError that
  ``grad_joint`` raises for a non-finite loss.
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

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be a non-empty list of positive ints")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if not self.tap_layers:
            raise ValueError("tap_layers must be non-empty")
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
        if not 0 < self.initial_lr < np.inf:
            raise ValueError("initial_lr must be positive and finite")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError("weight_decay must be nonnegative and finite")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0 < self.decay_factor <= 1:
            raise ValueError("decay_factor must be in (0, 1]")


@dataclass
class OptState:
    """Moment vectors in the layout of ``theta``: ``m`` is the SGD velocity
    or Adam's first moment, ``v`` Adam's second moment."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_opt_state(theta: np.ndarray) -> OptState:
    return OptState(np.zeros_like(theta), np.zeros_like(theta))


def flatten(*states):
    """Copy the parameters of ``states`` into one contiguous float64 vector
    in ``params()`` order, state after state.  Returns the vector followed
    by one state per input whose arrays are views into it."""
    arrays = [p for s in states for p in s.params()]
    theta = np.concatenate([a.ravel() for a in arrays])
    ends = np.cumsum([a.size for a in arrays])
    views = iter([theta[e - a.size : e].reshape(a.shape) for a, e in zip(arrays, ends)])
    return (theta, *[type(s).from_params([next(views) for _ in s.params()]) for s in states])


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

    @classmethod
    def from_params(cls, params: list[np.ndarray]) -> "NetState":
        return cls(list(params[0::2]), list(params[1::2]))


@dataclass
class BatchTrace:
    """Everything computed by one forward pass of a batch (arrays are (B, dim))."""

    activations: list[np.ndarray]
    logits: np.ndarray
    probs: np.ndarray
    taps: list[np.ndarray]


def init_net(cfg: NetConfig, seed: int) -> NetState:
    """He (relu) or Xavier (tanh) initialization drawn from ``seed``, zero biases."""
    rng = np.random.default_rng(seed)
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


def _act_deriv(a: np.ndarray, kind: str) -> np.ndarray:
    # From the activation alone: relu(z) > 0 exactly where z > 0 (relu'(0)
    # taken as 0), and tanh' = 1 - tanh^2.
    return (a > 0).astype(np.float64) if kind == "relu" else 1.0 - a * a


def forward_batch(state: NetState, cfg: NetConfig, X: np.ndarray) -> BatchTrace:
    """Forward pass over a (B, input_dim) batch; deterministic."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != cfg.input_dim:
        raise ValueError(f"expected feature dim {cfg.input_dim}, got {X.shape[1]}")
    act = []
    a = X
    for l in range(len(cfg.hidden_sizes)):
        a = _act(a @ state.weights[l].T + state.biases[l], cfg.activation)
        act.append(a)
    logits = a @ state.weights[-1].T + state.biases[-1]
    probs = stable_softmax(logits, axis=1)
    taps = [act[l] for l in cfg.tap_layers]
    return BatchTrace(act, logits, probs, taps)


def _joint_terms(
    state: NetState,
    cfg: NetConfig,
    head,
    X: np.ndarray,
    y: np.ndarray,
    td_targets: np.ndarray,
    trace: BatchTrace | None = None,
) -> tuple[BatchTrace, np.ndarray, np.ndarray, np.ndarray, np.ndarray, tdhead.HeadCache]:
    """Per-sample terms of the joint loss, shared by joint_loss and grad_joint.

    Returns ``(trace, cross entropy, KL(target || head), targets, head
    probs, head cache)``.
    """
    if trace is None:
        trace = forward_batch(state, cfg, X)
    B = trace.logits.shape[0]
    y = np.asarray(y, dtype=int)
    if np.any((y < 0) | (y >= cfg.n_classes)):
        raise ValueError(f"class index out of range for {cfg.n_classes} classes")
    per_ce = -log_softmax(trace.logits, axis=1)[np.arange(B), y]
    q = np.asarray(td_targets, dtype=np.float64)
    if q.shape != (B, cfg.n_classes):
        raise ValueError(f"td_targets shape {q.shape} != {(B, cfg.n_classes)}")
    pt, cache = tdhead.head_forward_batch(head, trace.taps)
    return trace, per_ce, kl_rows(q, pt), q, pt, cache


def joint_loss(
    state: NetState,
    cfg: NetConfig,
    head,
    X: np.ndarray,
    y: np.ndarray,
    td_targets: np.ndarray,
) -> tuple[float, float]:
    """(batch-mean cross entropy, batch-mean KL) without gradients: the
    finite-difference oracle for grad_joint, on the same loss terms."""
    _, per_ce, per_kl, *_ = _joint_terms(state, cfg, head, X, y, td_targets)
    return float(per_ce.mean()), float(per_kl.mean())


def grad_joint(
    state: NetState,
    cfg: NetConfig,
    head,
    X: np.ndarray,
    y: np.ndarray,
    td_targets: np.ndarray,
    lam: float,
    sample_ids: np.ndarray | None = None,
    trace: BatchTrace | None = None,
) -> tuple[np.ndarray, float, float]:
    """Exact gradient of ``L_target + lam * L_module`` over one batch.

    Returns ``(grad, loss_target, loss_module)``: ``grad`` is one float64
    vector in the layout ``flatten(state, head)`` gives the parameters, net
    part then head part.  The head-loss gradient flows into the classifier
    through the tapped layers.  ``trace`` may carry an already-computed
    forward pass of this batch.

    Raises FloatingPointError naming the offending sample id if any
    per-sample loss is non-finite.
    """
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be nonnegative and finite")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=int)
    B = X.shape[0]
    trace, per_ce, per_kl, q, pt, cache = _joint_terms(state, cfg, head, X, y, td_targets, trace)
    per_total = per_ce + lam * per_kl
    if not np.all(np.isfinite(per_total)):
        ids = np.arange(B) if sample_ids is None else np.asarray(sample_ids)
        bad = ids[np.flatnonzero(~np.isfinite(per_total))[0]]
        raise FloatingPointError(f"non-finite loss for sample id {bad}")

    onehot = np.zeros_like(trace.probs)
    onehot[np.arange(B), y] = 1.0
    dlogits = (trace.probs - onehot) / B

    # d(lam * mean KL)/d(head logits) = lam * (softmax - target) / B
    dU = lam * (pt - q) / B
    head_grads, tap_grads = tdhead.head_backward(head, cache, dU)
    tap_at_layer: dict[int, np.ndarray] = {}
    for layer, g in zip(cfg.tap_layers, tap_grads):
        tap_at_layer[layer] = tap_at_layer.get(layer, 0.0) + g

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
        dZ = dA * _act_deriv(trace.activations[l], cfg.activation)
        a_in = X if l == 0 else trace.activations[l - 1]
        dW[l] = dZ.T @ a_in
        db[l] = dZ.sum(axis=0)
        if l > 0:
            dA = dZ @ state.weights[l]

    grad = np.concatenate([g.ravel() for g in NetState(dW, db).params() + head_grads])
    return grad, float(per_ce.mean()), float(per_kl.mean())


def lr_at(opt: OptimizerConfig, epoch: int) -> float:
    """initial_lr before decay_epoch, initial_lr * decay_factor from it on."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    if epoch < opt.decay_epoch:
        return opt.initial_lr
    return opt.initial_lr * opt.decay_factor


def apply_update(
    theta: np.ndarray,
    grad: np.ndarray,
    opt_state: OptState,
    opt: OptimizerConfig,
    epoch: int,
) -> None:
    """In-place SGD-momentum or Adam update of the parameter vector; raises
    ValueError on a shape mismatch and FloatingPointError if the step leaves
    any parameter non-finite."""
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {theta.shape}")
    lr = lr_at(opt, epoch)
    g = grad + opt.weight_decay * theta
    if opt.kind == "sgd_momentum":
        opt_state.m = opt.momentum * opt_state.m + g
        theta -= lr * opt_state.m
    else:
        opt_state.step += 1
        opt_state.m = opt.beta1 * opt_state.m + (1.0 - opt.beta1) * g
        opt_state.v = opt.beta2 * opt_state.v + (1.0 - opt.beta2) * g * g
        m_hat = opt_state.m / (1.0 - opt.beta1 ** opt_state.step)
        v_hat = opt_state.v / (1.0 - opt.beta2 ** opt_state.step)
        theta -= lr * m_hat / (np.sqrt(v_hat) + opt.epsilon)
    if not np.isfinite(theta).all():
        raise FloatingPointError("non-finite network parameters")


# Kept as a second name because benchmark/tracer.py wraps netcore.optimizer_step.
optimizer_step = apply_update
