"""Minimal feedforward classifier with hand-derived gradients.

A network maps a feature vector through fully connected hidden layers
(relu or tanh) to C logits and a softmax.  Selected hidden activations
("taps") are exposed so the dynamics-prediction head can read
intermediate representations.  All gradients are exact closed forms;
optimization is plain SGD with momentum or Adam, with a one-step
learning-rate decay schedule.

Conventions
-----------
* Weights are ``(fan_out, fan_in)`` matrices, biases ``(fan_out,)``.  A
  net's input width and class count are read off them: ``init_net`` takes
  both from the data, and ``NetConfig`` holds neither.
* Batches are ``(B, dim)`` arrays; single samples are 1-D.
* Net and head are each a ``NetState``: ``params()`` lists ``[W0, b0, W1,
  b1, ..., W_out, b_out]``, and ``from_params`` is its inverse.
* Training holds all parameters in one contiguous float64 vector ``theta``
  (``flatten``): ``net.params() + head.params()`` raveled end to end, the
  states' arrays being views into it.  A training is one ``Joint``: its
  ``theta``, its gradient ``grad`` and its optimizer moments share that
  layout, and ``Joint.init``, which builds all three, is the one place that
  knows it.  ``apply_update``, the one place parameters change, rejects a
  step that leaves ``theta`` non-finite with the FloatingPointError that a
  non-finite loss raises.
* A leading run axis: ``flatten(..., runs=(R,))`` gives ``theta`` the shape
  ``(R, P)``, one row per run, and every parameter, gradient and batch
  array the same leading axis (weights ``(R, fan_out, fan_in)``, batches
  ``(R, B, dim)``).  R runs then train in lockstep through the same code
  as one: matmuls act per 2-D slice, every reduction names its axis from
  the end, and each run's numbers are those of its training alone.
* One kernel, ``_joint_step``, takes a batch through one forward pass of
  net and head (``_joint_forward``) and one backprop of the joint loss, the
  head's part by ``tdhead.head_backward``, writing the gradient into a
  ``Joint``'s ``grad``; ``Joint.step`` is the kernel followed by
  ``apply_update``.  It checks nothing that a training run cannot change
  between steps: ``alengine.train_lockstep``, the one training loop, checks
  its inputs once, and ``grad_joint``, the kernel's public face, checks them
  per call and backprops into a fresh ``Joint``.  Labels reach the kernel
  as a boolean one-hot (``one_hot``).  The KL targets come from a callback
  on the batch's class probabilities, in training ``TDStore.update_batch``
  of the batch's range of the epoch's order, which returns the means it
  stored: running means of probability vectors.  For such targets the
  kernel forms no losses, only their gradient, unless a shifted logit or
  ``lam`` leaves the bound inside which every loss is finite; then
  ``_joint_losses`` evaluates them exactly to name a sample whose loss is
  not.  ``grad_joint``, whose targets are any, always evaluates them.
* Inference over a set of rows is ``predict``: the net's and the head's
  passes over blocks of ``BLOCK_ROWS`` rows (``row_blocks``), so its
  memory stays near one block's, with the bits of one whole-array pass;
  states with a leading run axis give each run's pass of the same rows.
* Elementwise work acts in place only on arrays the function made: bias
  adds, activations and gradient scalings act on the fresh result of a
  matmul or subtraction, with the ufuncs and order of the out-of-place
  expression, so the bits are the same.  Matmuls allocate their results,
  with two exceptions: the head's tap reductions, which
  ``tdhead._relu_concat`` writes into the column blocks of one array in
  place of concatenating them, and the training step's logits, which
  ``_joint_forward`` writes into the two halves of one ``(2, *runs, B, C)``
  array, the net's then the head's, for one softmax pass over both.
  No input is written, only a ``Joint``'s ``grad``, which ``_joint_step``
  writes, and the state ``apply_update`` moves: ``theta`` and the
  ``OptState``, whose scratch arrays hold the update's intermediates.
* SGD momentum uses ``v = mu * v + g``, ``theta -= lr * v``.
* Weight decay enters as gradient augmentation ``g += wd * theta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tdhead
from .numutil import _shifted_exp_sum, kl_rows, stable_softmax

ACTIVATIONS = ("relu", "tanh")
OPTIMIZER_KINDS = ("sgd_momentum", "adam")
# Rows per block of an inference pass (``predict``).
BLOCK_ROWS = 8192


@dataclass
class NetConfig:
    """Architecture of the classifier: the ``net:`` config section.  The
    input width and class count come from the data (``init_net``).

    ``tap_layers`` lists the hidden-layer indices whose activations are
    forwarded to the dynamics-prediction head.
    """

    hidden_sizes: list[int] = field(default_factory=lambda: [32, 32])
    activation: str = "relu"
    tap_layers: list[int] = field(default_factory=lambda: [0, 1])

    def __post_init__(self):
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be a non-empty list of positive ints")
        if not self.tap_layers:
            raise ValueError("tap_layers must be non-empty")
        n_hidden = len(self.hidden_sizes)
        for t in self.tap_layers:
            if not 0 <= t < n_hidden:
                raise ValueError(f"tap layer {t} out of range for {n_hidden} hidden layers")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")


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
        if self.decay_epoch < 0:
            raise ValueError("decay_epoch must be nonnegative")


@dataclass
class OptState:
    """Arrays in the layout of ``theta``: ``m`` is the SGD velocity or
    Adam's first moment, ``v`` Adam's second moment, and the two of
    ``scratch`` hold ``apply_update``'s intermediates."""

    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    step: int = 0


def init_opt_state(theta: np.ndarray) -> OptState:
    return OptState(np.zeros_like(theta), np.zeros_like(theta),
                    (np.empty_like(theta), np.empty_like(theta)))


def flatten(*states, runs: tuple[int, ...] = ()):
    """Copy the parameters of ``states`` into one contiguous float64 vector
    in ``params()`` order, state after state, once per run of ``runs``
    (the leading axes; none for one run).  Returns the vector, ``(*runs,
    P)``, followed by one state per input whose arrays are views into it,
    each with the leading axes ``runs``."""
    theta = np.tile(np.concatenate([p.ravel() for s in states for p in s.params()]), (*runs, 1))
    return (theta, *_views(theta, states))


def _views(vec: np.ndarray, states) -> list:
    """States shaped like ``states``, behind the leading axes of ``vec``,
    whose arrays are consecutive views into ``vec``'s last axis."""
    arrays = [p for s in states for p in s.params()]
    ends = np.cumsum([a.size for a in arrays])
    views = iter([vec[..., e - a.size : e].reshape(*vec.shape[:-1], *a.shape)
                  for a, e in zip(arrays, ends)])
    return [NetState.from_params([next(views) for _ in s.params()]) for s in states]


@dataclass
class NetState:
    """Parameters of a chain of affine layers: the classifier's or the head's."""

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

    def run(self, r: int) -> "NetState":
        """Run ``r`` of a state with a leading run axis, as views into it."""
        return NetState.from_params([p[r] for p in self.params()])


@dataclass
class Joint:
    """One training of net and head: ``theta``, the flat parameters with
    ``net`` and ``head`` as views into it; ``grad``, in the same layout,
    with ``grad_net`` and ``grad_head`` as views into it, where
    ``_joint_step`` writes the gradient; and the optimizer state.  Only
    ``init`` knows that layout."""

    cfg: NetConfig
    theta: np.ndarray
    net: NetState
    head: NetState
    grad: np.ndarray
    grad_net: NetState
    grad_head: NetState
    opt_state: OptState

    @classmethod
    def init(cls, cfg: NetConfig, net: NetState, head: NetState, runs=()) -> Joint:
        """A training that starts from copies of ``net`` and ``head`` (no
        run axis), once per run of ``runs`` (``flatten``)."""
        theta, *states = flatten(net, head, runs=runs)
        grad = np.empty_like(theta)
        return cls(cfg, theta, *states, grad, *_views(grad, (net, head)), init_opt_state(theta))

    def step(self, X, hot, targets_of, lam, sample_ids, opt: OptimizerConfig, epoch: int) -> None:
        """One training step on checked inputs: ``_joint_step``, then
        ``apply_update`` of ``theta`` by the gradient."""
        # Through the module globals, which a tracer or a test may wrap.
        _joint_step(self, X, hot, targets_of, lam, sample_ids)
        apply_update(self.theta, self.grad, self.opt_state, opt, epoch)


@dataclass
class BatchTrace:
    """Activations, probabilities and taps of one forward pass of a batch
    (arrays are (B, dim); (R, B, dim) for a state with a leading run axis)."""

    activations: list[np.ndarray]
    probs: np.ndarray
    taps: list[np.ndarray]


def init_net(cfg: NetConfig, input_dim: int, n_classes: int, seed: int) -> NetState:
    """A net from ``input_dim`` features to ``n_classes`` logits: He (relu)
    or Xavier (tanh) initialization drawn from ``seed``, zero biases."""
    if input_dim < 1:
        raise ValueError("input_dim must be positive")
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    rng = np.random.default_rng(seed)
    gain = 2.0 if cfg.activation == "relu" else 1.0
    sizes = [input_dim, *cfg.hidden_sizes, n_classes]
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        scale = np.sqrt((gain if i < len(sizes) - 2 else 1.0) / fan_in)
        weights.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetState(weights=weights, biases=biases)


def _affine(a: np.ndarray, w: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """``a @ w.mT + b`` for rows ``a``, (..., B, fan_in); the bias is added in
    place, into ``out`` when given."""
    z = np.matmul(a, w.mT, out=out)
    z += b[..., None, :]
    return z


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    """The activation of ``z``, written over it: an array the caller made."""
    return np.maximum(z, 0.0, out=z) if kind == "relu" else np.tanh(z, out=z)


def _act_deriv(a: np.ndarray, kind: str) -> np.ndarray:
    # From the activation alone: relu(z) > 0 exactly where z > 0 (relu'(0)
    # taken as 0; a boolean factor multiplies as 0.0 or 1.0), and
    # tanh' = 1 - tanh^2.
    return a > 0 if kind == "relu" else 1.0 - a * a


def one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    """Boolean one-hot rows, (..., n_classes), of int labels in range."""
    return y[..., None] == np.arange(n_classes)


def forward_batch(state: NetState, cfg: NetConfig, X: np.ndarray) -> BatchTrace:
    """Forward pass over a (B, input_dim) batch; deterministic.  A state
    with a leading run axis passes the batch through each of its runs."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[-1] != state.weights[0].shape[-1]:
        raise ValueError(f"expected feature dim {state.weights[0].shape[-1]}, got {X.shape[-1]}")
    act, logits = _forward(state, cfg, X)
    return BatchTrace(act, stable_softmax(logits, axis=-1), [act[l] for l in cfg.tap_layers])


def row_blocks(n: int) -> list[slice]:
    """The row blocks of ``predict`` over ``n`` rows: each starts at a
    multiple of ``BLOCK_ROWS``, and the last runs to ``n``, so it holds
    ``BLOCK_ROWS`` to ``2 * BLOCK_ROWS - 1`` rows (all ``n`` below that)."""
    starts = [BLOCK_ROWS * i for i in range(max(n // BLOCK_ROWS, 1))]
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], n])]


def predict(state: NetState, cfg: NetConfig, X: np.ndarray, head: NetState | None = None,
            features: bool = False):
    """``(probs, head_probs, features)`` of the rows of ``X``: the class
    probabilities, (n, C); given ``head``, its probabilities, (n, C), else
    None; with ``features``, the last hidden layer, (n, width), else None.
    States with a leading run axis (``flatten``'s ``runs``) pass the rows
    through each run, and every output has that axis first: ``(*runs, n, .)``.

    ``forward_batch`` and ``tdhead.head_forward_batch`` run once per
    ``row_blocks`` block, writing into the preallocated outputs, so the
    memory beyond them is one block's activations.  The bits are those of
    one whole-array call (with one BLAS thread; several threads split a
    product's rows at a point that depends on its size): a matmul row's
    bits depend on its place modulo the BLAS kernel's row unroll, which a
    block start at a multiple of ``BLOCK_ROWS`` keeps, and on whether the
    product takes the small-matrix path, which a block of ``BLOCK_ROWS``
    rows or more never does unless the whole array would.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, runs = X.shape[0], state.biases[-1].shape[:-1]
    probs = np.empty((*runs, n, state.biases[-1].shape[-1]))
    head_probs = None if head is None else np.empty((*runs, n, head.biases[-1].shape[-1]))
    feats = np.empty((*runs, n, cfg.hidden_sizes[-1])) if features else None
    for rows in row_blocks(n):
        # Through the module attributes, which a tracer may wrap.
        bt = forward_batch(state, cfg, X[rows])
        probs[..., rows, :] = bt.probs
        if features:
            feats[..., rows, :] = bt.activations[-1]
        # Of this block only its taps live through the head's pass, and
        # nothing of it through the next block's passes.
        taps = bt.taps
        del bt
        if head is not None:
            head_probs[..., rows, :] = tdhead.head_forward_batch(head, taps)[0]
        del taps
    return probs, head_probs, feats


def _forward(state: NetState, cfg: NetConfig, X: np.ndarray, out=None):
    """(hidden activations, logits) of a checked (..., B, input_dim) float64
    batch; the logits are written into ``out`` when given."""
    act = []
    a = X
    for l in range(len(cfg.hidden_sizes)):
        a = _act(_affine(a, state.weights[l], state.biases[l]), cfg.activation)
        act.append(a)
    return act, _affine(a, state.weights[-1], state.biases[-1], out)


def grad_joint(
    state: NetState,
    cfg: NetConfig,
    head,
    X: np.ndarray,
    y: np.ndarray,
    td_targets: np.ndarray,
    lam: float,
    sample_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, float, float]:
    """Exact gradient of ``L_target + lam * L_module`` over one batch.

    Returns ``(grad, loss_target, loss_module)``: ``grad`` is one float64
    vector in the layout ``flatten(state, head)`` gives the parameters, net
    part then head part; the losses are the batch-mean cross entropy and
    KL(target || head) that ``grad`` differentiates, evaluated by the
    forward code alone.  The head-loss gradient flows into the classifier
    through the tapped layers.  ``grad`` is ``_joint_step``, the training
    kernel, on checked inputs and a fresh ``Joint`` of ``state`` and
    ``head``: that training's ``grad``.

    The kernel evaluates the losses only outside a bound that keeps them
    finite for probability targets, and these targets are any: so a
    forward pass of their own (``_joint_forward``) evaluates them exactly,
    before the kernel runs.  Raises FloatingPointError naming the
    offending sample id if any per-sample loss is non-finite.
    """
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be nonnegative and finite")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != state.weights[0].shape[1]:
        raise ValueError(f"expected feature dim {state.weights[0].shape[1]}, got {X.shape[1]}")
    y = np.asarray(y, dtype=int)
    n_classes = state.biases[-1].size
    check_labels(y, n_classes)
    B = X.shape[0]
    q = np.asarray(td_targets, dtype=np.float64)
    if q.shape != (B, n_classes):
        raise ValueError(f"td_targets shape {q.shape} != {(B, n_classes)}")
    tdhead.check_taps(head, [cfg.hidden_sizes[t] for t in cfg.tap_layers])
    ids = np.arange(B) if sample_ids is None else np.asarray(sample_ids)
    hot = one_hot(y, n_classes)
    _, _, _, shifted, total, p = _joint_forward(state, cfg, head, X)
    per_ce, per_kl = _joint_losses(shifted, total, p[1], hot, q, lam, ids)
    joint = Joint.init(cfg, state, head)
    _joint_step(joint, X, hot, lambda probs: q, lam, ids)
    return joint.grad, float(per_ce.mean()), float(per_kl.mean())


def check_labels(y: np.ndarray, n_classes: int) -> None:
    """ValueError unless every label is a class index below ``n_classes``."""
    if np.any((y < 0) | (y >= n_classes)):
        raise ValueError(f"class index out of range for {n_classes} classes")


def _joint_forward(state, cfg, head, X):
    """One forward pass of net and head over a checked batch: ``(act, taps,
    concat, shifted, total, p)``, the net's hidden activations, its taps,
    the head's relu concat, and three arrays of shape ``(2, *runs, B, .)``,
    the net's half then the head's.

    The net's and the head's logits are written into the two halves of one
    array, and one ``numutil._shifted_exp_sum`` over its last axis gives
    ``shifted``, the logits less their row max, and ``total``, the row sums
    of their exps; ``p`` is those exps divided by ``total`` in place, the
    two softmaxes with the bits of ``stable_softmax``.  Each row's bits are
    those of a pass over its own half, as every step acts on each row alone.
    """
    logits = np.empty((2, *X.shape[:-1], state.biases[-1].shape[-1]))
    act, _ = _forward(state, cfg, X, out=logits[0])
    taps = [act[l] for l in cfg.tap_layers]
    concat = tdhead._relu_concat(head, taps)
    _affine(concat, head.weights[-1], head.biases[-1], out=logits[1])
    shifted, p, total = _shifted_exp_sum(logits, -1)
    p /= total
    return act, taps, concat, shifted, total, p


def _joint_losses(shifted, total, pt, hot, q, lam, sample_ids):
    """``(per_ce, per_kl)``, each (*runs, B): the cross entropies of the net
    at the labels ``hot`` and the KL(q || pt) of the head, from a
    ``_joint_forward``'s ``shifted``, ``total`` and head probabilities ``pt``.
    Raises FloatingPointError naming the entry of ``sample_ids`` of the
    first sample whose ``per_ce + lam * per_kl`` is not finite."""
    # log-softmax by the log-sum-exp identity, over both halves as one array
    log_p = shifted - np.log(total)
    per_ce = -log_p[0][hot].reshape(hot.shape[:-1])
    per_kl = kl_rows(q, pt)
    per_total = per_ce + lam * per_kl
    if not np.isfinite(per_total).all():
        bad = sample_ids.flat[np.flatnonzero(~np.isfinite(per_total))[0]]
        raise FloatingPointError(f"non-finite loss for sample id {bad}")
    return per_ce, per_kl


def _joint_step(joint: Joint, X, hot, targets_of, lam, sample_ids):
    """One batch of joint training on checked inputs: ``_joint_forward``
    of ``joint``'s net and head, then one backprop of ``L_target + lam *
    L_module`` whose gradient is written into ``joint.grad``, every entry
    of it each call.  Returns nothing; ``Joint.step`` applies the update.

    ``X`` is a (B, input_dim) float64 array, ``hot`` the (B, C) boolean
    one-hot of its labels, ``targets_of`` maps the (B, C) class
    probabilities to the (B, C) KL targets and is called once, after the
    forward pass.  The targets must be finite probability vectors or means
    of them, as training's running means of the probabilities it is given
    are.  With a leading run axis on ``joint``, every array has it too.

    Only the losses' gradient moves the parameters, so the losses are
    evaluated (``_joint_losses``) only to raise its FloatingPointError, and
    only when a shifted logit is below -1e300 or NaN, or ``lam`` above
    1e300: after the targets, before any backprop.  Inside that bound every
    loss is finite.  Each row's max is finite, so its exp sum lies in [1,
    C] and ``per_ce = log(total) - shifted_y <= ln C + 1e300``.  Each KL
    term is ``q * log(r)`` with ``r`` in [1e-12, 1e12] by ``kl_rows``'
    floors, so ``|per_kl| <= sum(q) * ln 1e12``, about 27.6 for a
    probability vector, and ``lam * per_kl`` stays below 3e301.  A NaN
    fails the bound, as does a row with an infinite logit or one whose
    ``z - max`` overflows; outside the bound the exact losses decide, so
    the step raises exactly when a loss is not finite.
    """
    state, cfg, head = joint.net, joint.cfg, joint.head
    act, taps, concat, shifted, total, p = _joint_forward(state, cfg, head, X)
    probs, pt = p
    q = targets_of(probs)
    # ``initial`` keeps an empty batch inside the bound; a NaN still propagates.
    if not (shifted.min(initial=0.0) >= -1e300 and lam <= 1e300):
        _joint_losses(shifted, total, pt, hot, q, lam, sample_ids)

    B = X.shape[-2]
    dlogits = probs - hot
    dlogits /= B
    # d(lam * mean KL)/d(head logits) = lam * (softmax - target) / B, in that order
    dU = pt - q
    dU *= lam
    dU /= B
    tap_grads = tdhead.head_backward(head, taps, concat, dU, joint.grad_head)
    tap_at_layer: dict[int, np.ndarray] = {}
    for layer, g in zip(cfg.tap_layers, tap_grads):
        tap_at_layer[layer] = tap_at_layer.get(layer, 0.0) + g

    np.matmul(dlogits.mT, act[-1], out=joint.grad_net.weights[-1])
    dlogits.sum(axis=-2, out=joint.grad_net.biases[-1])
    dA = dlogits @ state.weights[-1]
    for l in range(len(act) - 1, -1, -1):
        if l in tap_at_layer:
            dA += tap_at_layer[l]
        dZ = dA
        dZ *= _act_deriv(act[l], cfg.activation)
        np.matmul(dZ.mT, X if l == 0 else act[l - 1], out=joint.grad_net.weights[l])
        dZ.sum(axis=-2, out=joint.grad_net.biases[l])
        if l > 0:
            dA = dZ @ state.weights[l]


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
    """In-place SGD-momentum or Adam update of the parameter vector, or of
    each run's row of a ``(R, P)`` one; raises ValueError on a shape
    mismatch and FloatingPointError if the step leaves any parameter
    non-finite.  It writes ``theta`` and ``opt_state``'s arrays only."""
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {theta.shape}")
    lr = lr_at(opt, epoch)
    m, v, (g, t) = opt_state.m, opt_state.v, opt_state.scratch
    np.multiply(theta, opt.weight_decay, out=g)  # g = grad + wd * theta
    g += grad
    if opt.kind == "sgd_momentum":
        m *= opt.momentum  # m = mu * m + g; theta -= lr * m
        m += g
        theta -= np.multiply(m, lr, out=t)
    else:
        opt_state.step += 1
        # m = b1 * m + (1 - b1) * g; v = b2 * v + (1 - b2) * g * g;
        # theta -= lr * m_hat / (sqrt(v_hat) + eps), m_hat and v_hat bias-corrected
        m *= opt.beta1
        m += np.multiply(g, 1.0 - opt.beta1, out=t)
        v *= opt.beta2
        np.multiply(g, 1.0 - opt.beta2, out=t)
        v += np.multiply(t, g, out=t)
        np.divide(m, 1.0 - opt.beta1 ** opt_state.step, out=g)
        g *= lr
        np.divide(v, 1.0 - opt.beta2 ** opt_state.step, out=t)
        np.sqrt(t, out=t)
        t += opt.epsilon
        theta -= np.divide(g, t, out=g)
    if not np.isfinite(theta).all():
        raise FloatingPointError("non-finite network parameters")


# Kept as a second name because benchmark/tracer.py wraps netcore.optimizer_step.
optimizer_step = apply_update
