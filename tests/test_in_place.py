"""The in-place elementwise work of the training step and of inference,
held bit for bit against the out-of-place expressions it replaced.

Each ``ref_*`` function below is the earlier out-of-place form of one
rewritten function, kept verbatim as the reference: the same ufuncs in the
same order, each result a fresh array.  The shipped configs train relu nets
at ``lam`` = 1 only, so their artifact fingerprints would miss a reordering
under tanh or another ``lam``; these tests run both activations, ``lam`` 0
and 0.7, one and three stacked runs, and a partial last batch, and compare
``tobytes()`` (which tells -0.0 from 0.0) after every step.  The softmaxes'
row max (``max_along``, a reduce over a class-major copy) is held against
``ndarray.max`` on the rows where a max's evaluation order could show: NaN,
infinities, a -0.0/+0.0 tie and a unique -0.0 maximum.  The head's tap
reductions, which BLAS writes into the column blocks of one array, are held
against the per-tap products concatenated.  The training step is driven
as ``alengine.train_lockstep`` drives it, folding each batch as a range of
the TD store's epoch order; the reference folds the batch's dataset rows
into per-row counts (``ref_update_batch``), takes the net's and the head's
softmaxes each over its own logits, where the kernel takes one over both
stacked, and masks each tap's block of the head's gradient by its own
relu, where ``head_backward`` masks the whole concat once.  The kernel
forms the per-sample losses only when a shifted logit or ``lam`` leaves
the bound inside which they are finite; ``ref_checked_joint_step``, the
step that formed and checked them on every call, is the reference for its
raises and their messages, the TD store it leaves and its gradient, on
NaN, infinite and overflowing logits in the net's half and in the head's.  A second group checks that no rewritten
function writes an array it was given.
"""

import numpy as np
import pytest

from dynal import netcore, tdhead
from dynal.estimators import margin
from dynal.netcore import NetConfig, OptimizerConfig
from dynal.numutil import PROB_FLOOR, kl_rows, max_along, stable_softmax
from dynal.tdtrack import TDStore

# --- the out-of-place reference -------------------------------------------------------------


def ref_shifted_exp_sum(z, axis):
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=axis, keepdims=True)


def ref_stable_softmax(z, axis=-1):
    _, e, total = ref_shifted_exp_sum(z, axis)
    return e / total


def ref_softmax_and_log_softmax(z, axis=-1):
    shifted, e, total = ref_shifted_exp_sum(z, axis)
    return e / total, shifted - np.log(total)


def ref_kl_rows(q, p):
    q = np.asarray(q, dtype=np.float64)
    p = np.maximum(np.asarray(p, dtype=np.float64), PROB_FLOOR)
    terms = np.where(q > 0, q * np.log(np.maximum(q, PROB_FLOOR) / p), 0.0)
    return terms.sum(axis=-1)


def ref_act(z, kind):
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def ref_forward(state, cfg, X):
    act = []
    a = X
    for l in range(len(cfg.hidden_sizes)):
        a = ref_act(a @ state.weights[l].mT + state.biases[l][..., None, :], cfg.activation)
        act.append(a)
    return act, a @ state.weights[-1].mT + state.biases[-1][..., None, :]


def ref_head_forward(head, taps):
    pre = [t @ w.mT + b[..., None, :] for t, w, b in zip(taps, head.weights[:-1], head.biases[:-1])]
    concat = np.maximum(np.concatenate(pre, axis=-1), 0.0)
    logits = concat @ head.weights[-1].mT + head.biases[-1][..., None, :]
    return concat, ref_stable_softmax(logits, axis=-1)


def ref_margin(p, y):
    """``estimators.margin`` with its row max taken by ``ndarray.max``."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y)[..., None]
    others = p.copy()
    np.put_along_axis(others, y, -np.inf, axis=-1)
    return np.take_along_axis(p, y, axis=-1)[..., 0] - others.max(axis=-1)


def ref_head_backward(head, taps, concat, dlogits, out):
    """``tdhead.head_backward`` with each tap's relu mask applied to a copy of its block."""
    np.matmul(dlogits.mT, concat, out=out.weights[-1])
    dlogits.sum(axis=-2, out=out.biases[-1])
    dconcat = dlogits @ head.weights[-1]
    r = head.weights[0].shape[-2]
    tap_grads = []
    for j, (t, w) in enumerate(zip(taps, head.weights[:-1])):
        cols = slice(j * r, (j + 1) * r)
        dS = dconcat[..., cols] * (concat[..., cols] > 0)
        np.matmul(dS.mT, t, out=out.weights[j])
        dS.sum(axis=-2, out=out.biases[j])
        tap_grads.append(dS @ w)
    return tap_grads


def ref_update_batch(mean, count, rows, probs):
    """``TDStore.update_batch`` on a store's ``mean`` and ``count`` arrays."""
    t = count[rows] + 1
    m = mean[..., rows, :]
    m = m + (probs - m) / t[:, None]
    mean[..., rows, :] = m
    count[rows] = t
    return m


def ref_joint_step(state, cfg, head, X, hot, targets_of, lam, grad_net, grad_head):
    """``netcore._joint_step`` less its finiteness check, each softmax over its own logits."""
    act, logits = ref_forward(state, cfg, X)
    probs, log_probs = ref_softmax_and_log_softmax(logits, axis=-1)
    taps = [act[l] for l in cfg.tap_layers]
    q = targets_of(probs)
    B = X.shape[-2]
    per_ce = -log_probs[hot].reshape(hot.shape[:-1])
    concat, pt = ref_head_forward(head, taps)
    per_kl = ref_kl_rows(q, pt)

    dlogits = (probs - hot) / B
    dU = lam * (pt - q) / B
    tap_grads = ref_head_backward(head, taps, concat, dU, grad_head)
    tap_at_layer = {}
    for layer, g in zip(cfg.tap_layers, tap_grads):
        tap_at_layer[layer] = tap_at_layer.get(layer, 0.0) + g

    np.matmul(dlogits.mT, act[-1], out=grad_net.weights[-1])
    dlogits.sum(axis=-2, out=grad_net.biases[-1])
    dA = dlogits @ state.weights[-1]
    for l in range(len(act) - 1, -1, -1):
        if l in tap_at_layer:
            dA = dA + tap_at_layer[l]
        dZ = dA * netcore._act_deriv(act[l], cfg.activation)
        np.matmul(dZ.mT, X if l == 0 else act[l - 1], out=grad_net.weights[l])
        dZ.sum(axis=-2, out=grad_net.biases[l])
        if l > 0:
            dA = dZ @ state.weights[l]
    return per_ce, per_kl


def ref_checked_joint_step(joint, X, hot, targets_of, lam, sample_ids):
    """``netcore._joint_step`` as it was when it formed every step's losses
    and checked them: verbatim but for the module prefixes and its
    log-softmax, which is ``ref_softmax_and_log_softmax``."""
    state, cfg, head = joint.net, joint.cfg, joint.head
    logits = np.empty((2, *hot.shape))
    act, _ = netcore._forward(state, cfg, X, out=logits[0])
    taps = [act[l] for l in cfg.tap_layers]
    concat = tdhead._relu_concat(head, taps)
    netcore._affine(concat, head.weights[-1], head.biases[-1], out=logits[1])
    p, log_p = ref_softmax_and_log_softmax(logits, axis=-1)
    probs, pt = p
    q = targets_of(probs)
    B = X.shape[-2]
    per_ce = -log_p[0][hot].reshape(hot.shape[:-1])
    per_kl = kl_rows(q, pt)
    per_total = per_ce + lam * per_kl
    if not np.isfinite(per_total).all():
        bad = sample_ids.flat[np.flatnonzero(~np.isfinite(per_total))[0]]
        raise FloatingPointError(f"non-finite loss for sample id {bad}")

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
        dZ *= netcore._act_deriv(act[l], cfg.activation)
        np.matmul(dZ.mT, X if l == 0 else act[l - 1], out=joint.grad_net.weights[l])
        dZ.sum(axis=-2, out=joint.grad_net.biases[l])
        if l > 0:
            dA = dZ @ state.weights[l]
    return per_ce, per_kl


class RefOpt:
    """``apply_update``'s state and step, each moment rebound to a fresh array."""

    def __init__(self, theta):
        self.m, self.v, self.step = np.zeros_like(theta), np.zeros_like(theta), 0

    def update(self, theta, grad, opt, epoch):
        lr = netcore.lr_at(opt, epoch)
        g = grad + opt.weight_decay * theta
        if opt.kind == "sgd_momentum":
            self.m = opt.momentum * self.m + g
            theta -= lr * self.m
        else:
            self.step += 1
            self.m = opt.beta1 * self.m + (1.0 - opt.beta1) * g
            self.v = opt.beta2 * self.v + (1.0 - opt.beta2) * g * g
            m_hat = self.m / (1.0 - opt.beta1 ** self.step)
            v_hat = self.v / (1.0 - opt.beta2 ** self.step)
            theta -= lr * m_hat / (np.sqrt(v_hat) + opt.epsilon)


def ref_predict(state, cfg, X, head):
    """``netcore.predict`` with the head and features, block by block."""
    runs, n = state.biases[-1].shape[:-1], X.shape[0]
    probs = np.empty((*runs, n, state.biases[-1].shape[-1]))
    head_probs = np.empty((*runs, n, head.biases[-1].shape[-1]))
    feats = np.empty((*runs, n, cfg.hidden_sizes[-1]))
    for rows in netcore.row_blocks(n):
        act, logits = ref_forward(state, cfg, X[rows])
        probs[..., rows, :] = ref_stable_softmax(logits, axis=-1)
        head_probs[..., rows, :] = ref_head_forward(head, [act[l] for l in cfg.tap_layers])[1]
        feats[..., rows, :] = act[-1]
    return probs, head_probs, feats


# --- bit for bit against the reference ------------------------------------------------------


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def mixture(n, dim, n_classes, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, size=n)
    return rng.normal(size=(n, dim)) + 1.5 * np.eye(n_classes, dim)[y], y


def step_losses(net, cfg, head, X, hot, q, lam, sample_ids):
    """The per-sample losses of a training step with targets ``q``, by the
    kernel's exact-loss path (the kernel itself forms none)."""
    _, _, _, shifted, total, p = netcore._joint_forward(net, cfg, head, X)
    return netcore._joint_losses(shifted, total, p[1], hot, q, lam, sample_ids)


def train_against_reference(runs, activation, lam, kind):
    """Three epochs over 45 samples in batches of 16, the last batch 13 rows,
    so the store folds repeat visits; every step's per-sample losses,
    gradient, the store's means and count, and the parameters are compared,
    and the moments.  The step folds as ``alengine.train_lockstep`` does:
    inside the store's epoch, each batch a range of the epoch's order, its
    rows sliced from the epoch's gather.  The reference folds the batch's
    dataset rows into per-row counts."""
    cfg = NetConfig(hidden_sizes=[7, 6], activation=activation, tap_layers=[0, 1])
    opt = OptimizerConfig(kind=kind, initial_lr=0.05, weight_decay=5e-4, decay_epoch=2)
    n, dim, C, batch = 45, 5, 3, 16
    X1, y1 = mixture(n, dim, C, 11)
    R = runs[0] if runs else 1
    # each run its own rows of the set, as the runs of a lockstep train distinct sets
    order = [np.random.default_rng(20 + r).permutation(n) for r in range(R)]
    X = np.stack([X1[o] for o in order]).reshape(*runs, n, dim)
    hot = netcore.one_hot(np.stack([y1[o] for o in order]).reshape(*runs, n), C)
    ids = np.arange(n)
    net0 = netcore.init_net(cfg, dim, C, 1)
    head0 = tdhead.init_head([7, 6], C, 4, 2)
    joint, store = netcore.Joint.init(cfg, net0, head0, runs=runs), TDStore(n, C, runs)
    # the reference's own parameters and gradient, in the same layout; its optimizer is RefOpt
    ref = netcore.Joint.init(cfg, net0, head0, runs=runs)
    ref_opt, ref_mean, ref_count = RefOpt(ref.theta), np.zeros((*runs, n, C)), np.zeros(n, int)
    rng = np.random.default_rng(5)
    steps = 0
    for epoch in range(3):
        perm = rng.permutation(n)
        X_p, hot_p = X[..., perm, :], hot[..., perm, :]
        with store.epoch(perm):
            for lo in range(0, n, batch):
                rows = perm[lo : lo + batch]
                span = range(lo, min(lo + batch, n))
                b = slice(span.start, span.stop)
                Xk, hotk = X_p[..., b, :], hot_p[..., b, :]
                joint.step(Xk, hotk, lambda probs: store.update_batch(span, probs), lam, ids[rows],
                           opt, epoch)
                # the step's targets are its rows' means, just folded at the batch's positions of
                # the epoch's order; its losses are taken at the parameters it differentiated,
                # which the reference holds until its update
                got = step_losses(ref.net, cfg, ref.head, Xk, hotk, store.mean[..., b, :], lam,
                                  ids[rows])
                want = ref_joint_step(ref.net, cfg, ref.head, X[..., rows, :], hot[..., rows, :],
                                      lambda probs: ref_update_batch(ref_mean, ref_count, rows,
                                                                     probs),
                                      lam, ref.grad_net, ref.grad_head)
                assert all(same_bits(a, b) for a, b in zip(got, want))
                # the update writes theta and the moments only: the gradient is the step's
                assert same_bits(joint.grad, ref.grad)
                # inside the epoch, the store's means are in its order
                assert same_bits(store.mean, ref_mean[..., perm, :])
                assert (ref_count[rows] == epoch + 1).all()
                ref_opt.update(ref.theta, ref.grad, opt, epoch)
                assert same_bits(joint.theta, ref.theta) and same_bits(joint.opt_state.m, ref_opt.m)
                if kind == "adam":
                    assert same_bits(joint.opt_state.v, ref_opt.v)
                steps += 1
        # out of the epoch, the store's own arrays are in dataset order
        assert same_bits(store.mean, ref_mean) and store.epochs == epoch + 1
        assert (ref_count == store.epochs).all()
    assert steps == 9 and len(rows) == len(span) == 13


@pytest.mark.parametrize("runs", [(), (1,), (3,)])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("lam", [0.0, 0.7])
@pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
def test_epoch_path_steps_match_the_out_of_place_reference(runs, activation, lam, kind):
    train_against_reference(runs, activation, lam, kind)


# Output-bias rows that put the logits where the kernel's loss check must
# look, C = 4.  Each is added to every row's finite logits in the last run,
# of the net or of the head.  Class 1 holds the edge; the labels put it off
# every row's label or at rows 2 and 4.
CHECK_ROWS = {
    "finite": [0.3, -0.2, 0.1, 0.0],
    # inside the bound, but the head's KL is 8 to 16 nats: lam * KL overflows at lam 1e308
    "far": [0.3, -40.0, 0.1, 0.0],
    "nan": [0.3, np.nan, 0.1, 0.0],
    "pos_inf": [0.3, np.inf, 0.1, 0.0],
    "neg_inf": [0.3, -np.inf, 0.1, 0.0],
    # class 1's z - max overflows to -inf; class 2's is -1e308, a finite loss
    "overflow": [1e308, -1e308, 0.1, 0.0],
    "all_neg_inf": [-np.inf] * 4,
}
CHECK_LABELS = {"off": [0, 2, 3, 0, 2], "at": [0, 2, 1, 3, 1]}


def checked_step_outcome(step, row, half, labels, lam, runs):
    """What ``step`` leaves on one batch of five rows with ``CHECK_ROWS[row]``
    in the output bias of ``half``'s last run: the message of the
    FloatingPointError it raises or None, the store's means as bytes and
    its epoch count, and the gradient vector (NaN where unwritten) as bytes."""
    cfg = NetConfig(hidden_sizes=[6, 5], tap_layers=[0, 1])
    B, C = 5, 4
    net0, head0 = netcore.init_net(cfg, 3, C, 15), tdhead.init_head([6, 5], C, 4, 16)
    joint = netcore.Joint.init(cfg, net0, head0, runs=runs)
    (joint.net if half == "net" else joint.head).biases[-1].reshape(-1, C)[-1] = CHECK_ROWS[row]
    joint.grad[...] = np.nan
    rng = np.random.default_rng(17)
    X = rng.normal(size=(*runs, B, 3))
    hot = netcore.one_hot(np.broadcast_to(CHECK_LABELS[labels], (*runs, B)), C)
    ids = (100 * np.arange(runs[0] if runs else 1)[:, None] + np.arange(B)).reshape(*runs, B)
    # the targets are running means: a first epoch's probabilities, then this step's, each
    # epoch in dataset order
    store, rows = TDStore(B, C, runs), range(B)
    with store.epoch(rows):
        store.update_batch(rows, ref_stable_softmax(rng.normal(size=(*runs, B, C))))
    raised = None
    with np.errstate(all="ignore"):
        try:
            with store.epoch(rows):
                step(joint, X, hot, lambda probs: store.update_batch(rows, probs), lam, ids)
        except FloatingPointError as e:
            raised = str(e)
    return raised, store.mean.tobytes(), store.epochs, joint.grad.tobytes()


@pytest.mark.parametrize("runs", [(), (1,), (3,)])
@pytest.mark.parametrize("lam", [0.0, 0.7, 1e301, 1e308])
@pytest.mark.parametrize("labels", ["off", "at"])
@pytest.mark.parametrize("half", ["net", "head"])
@pytest.mark.parametrize("row", list(CHECK_ROWS))
def test_loss_check_matches_the_out_of_place_reference(row, half, labels, lam, runs):
    # the kernel forms the losses only outside its bound; it must raise exactly
    # when the step that formed them every time raised, with the same message,
    # and leave the same store and gradient (written only when it does not raise)
    assert (checked_step_outcome(netcore._joint_step, row, half, labels, lam, runs)
            == checked_step_outcome(ref_checked_joint_step, row, half, labels, lam, runs))


@pytest.mark.parametrize("runs", [(), (3,)])
def test_loss_check_rows_reach_the_cases_they_name(runs):
    def raised(row, half, labels, lam):
        return checked_step_outcome(ref_checked_joint_step, row, half, labels, lam, runs)[0]

    last = 200 if runs else 0  # the first sample id of the last run
    for half in ["net", "head"]:
        for row in ["nan", "pos_inf", "all_neg_inf"]:
            assert raised(row, half, "off", 0.0) == f"non-finite loss for sample id {last}"
        for lam in [0.0, 0.7, 1e301]:
            assert raised("finite", half, "at", lam) is None
            assert raised("far", half, "at", lam) is None
    # -inf off the label trains on, at the label it raises; so does an
    # overflowed z - max, while one of -1e308 is a finite loss
    assert raised("neg_inf", "net", "off", 0.7) is None
    assert raised("neg_inf", "net", "at", 0.7) == f"non-finite loss for sample id {last + 2}"
    assert raised("overflow", "net", "off", 0.7) is None
    assert raised("overflow", "net", "at", 0.7) == f"non-finite loss for sample id {last + 2}"
    # in the head's half the KL floors a zero probability
    assert raised("neg_inf", "head", "at", 1e301) is None
    assert raised("overflow", "head", "at", 1e301) is None
    # inside the logit bound, only lam above 1e300 can make a loss overflow
    assert raised("far", "head", "off", 1e308) is not None


@pytest.mark.parametrize("runs", [(), (3,)])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_predict_over_two_blocks_matches_the_out_of_place_reference(runs, activation):
    # 16,385 rows: two row blocks, the second of 8,193 rows
    cfg = NetConfig(hidden_sizes=[8, 5], activation=activation, tap_layers=[0, 1])
    theta, net, head = netcore.flatten(netcore.init_net(cfg, 4, 3, 3),
                                       tdhead.init_head([8, 5], 3, 4, 4), runs=runs)
    theta += np.random.default_rng(6).normal(scale=0.3, size=theta.shape)  # runs differ
    X = np.random.default_rng(7).normal(size=(2 * netcore.BLOCK_ROWS + 1, 4))
    assert len(netcore.row_blocks(len(X))) == 2
    got = netcore.predict(net, cfg, X, head=head, features=True)
    want = ref_predict(net, cfg, X, head)
    assert [same_bits(a, b) for a, b in zip(got, want)] == [True, True, True]


# Rows on which the order of a max's comparisons could show, each padded to
# four classes with -1.0.
EDGE_ROWS = [
    [np.nan, 1.0],
    [2.0, np.nan],
    [np.nan, -np.inf],
    [np.inf, 3.0],
    [-np.inf, 0.5],
    [-np.inf, -np.inf, -np.inf, -np.inf],
    [np.inf, -np.inf],
    [-0.0, 0.0],
    [0.0, -0.0],
    [-0.0, -0.0, 0.0, -0.0],
    [0.0, 0.0, -0.0],
    # a unique -0.0 maximum whose exp is the only one not to underflow: the
    # sum is exactly 1 and the log-softmax's 0.0 - 0.0 keeps the max's sign
    [-0.0, -800.0, -1e300, -np.inf],
]


def edge_rows():
    return np.array([row + [-1.0] * (4 - len(row)) for row in EDGE_ROWS])


@pytest.mark.parametrize("runs", [(), (1,), (3,)])
@pytest.mark.parametrize("widths", [[6], [7, 3], [5, 9, 2]])
@pytest.mark.parametrize("B", [1, 2, 17, 64])
def test_head_forward_matches_the_out_of_place_reference(runs, widths, B):
    # each tap's product is written into its column block of one array
    rng = np.random.default_rng(12)
    _, head = netcore.flatten(tdhead.init_head(widths, 4, 5, 13), runs=runs)
    for b in head.biases:  # nonzero biases, each tap's own
        b[...] = rng.normal(size=b.shape)
    taps = [rng.normal(size=(*runs, B, d)) for d in widths]
    got, want = tdhead.head_forward_batch(head, taps)[::-1], ref_head_forward(head, taps)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    assert (got[0] == 0).any() and (got[0] > 0).any()


@pytest.mark.parametrize("runs", [(), (3,)])
def test_three_tap_predict_over_two_blocks_matches_the_out_of_place_reference(runs):
    cfg = NetConfig(hidden_sizes=[8, 5, 6], tap_layers=[2, 0, 1])
    theta, net, head = netcore.flatten(netcore.init_net(cfg, 4, 3, 5),
                                       tdhead.init_head([6, 8, 5], 3, 4, 6), runs=runs)
    theta += np.random.default_rng(7).normal(scale=0.3, size=theta.shape)
    X = np.random.default_rng(8).normal(size=(2 * netcore.BLOCK_ROWS + 3, 4))
    got = netcore.predict(net, cfg, X, head=head, features=True)
    want = ref_predict(net, cfg, X, head)
    assert [same_bits(a, b) for a, b in zip(got, want)] == [True, True, True]


@pytest.mark.parametrize("runs", [(), (3,)])
def test_taps_of_unequal_row_counts_raise(runs):
    _, head = netcore.flatten(tdhead.init_head([4, 3], 2, 2, 0), runs=runs)
    for rows in [(5, 4), (4, 5), (1, 4), (4, 1)]:
        taps = [np.ones((*runs, n, d)) for n, d in zip(rows, [4, 3])]
        with pytest.raises(ValueError):
            tdhead.head_forward_batch(head, taps)


def logit_cases():
    rng = np.random.default_rng(8)
    big = rng.normal(scale=30.0, size=(3, 6, 5))
    big[0, 0] = [700.0, -700.0, 0.0, 0.0, 1e-300]  # exp underflows to 0 for all but one
    edges = edge_rows()
    return [rng.normal(size=5), rng.normal(size=(9, 4)), big, np.zeros((2, 3)),
            edges, np.stack([edges, edges[::-1]]), np.zeros((0, 4))]


def outcome(f, *args, **kw):
    """``f``'s result, or the ValueError it raises, with float warnings off
    (NaN and infinite rows subtract infinities)."""
    with np.errstate(all="ignore"):
        try:
            return f(*args, **kw)
        except ValueError as e:
            return e


def same_outcome(a, b):
    """Equal bits, or ValueErrors of the same message; tuples elementwise."""
    if isinstance(a, ValueError) or isinstance(b, ValueError):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    return same_bits(a, b)


@pytest.mark.parametrize("z", logit_cases())
def test_softmaxes_match_the_out_of_place_reference(z):
    # over an empty axis (the zero-row case's rows) both raise the same ValueError
    for axis in range(-z.ndim, 0):
        assert same_outcome(outcome(stable_softmax, z, axis=axis),
                            outcome(ref_stable_softmax, z, axis=axis))


def test_edge_rows_reach_the_cases_they_name():
    z = edge_rows()
    with np.errstate(all="ignore"):
        _, _, total = ref_shifted_exp_sum(z, -1)
        _, log_p = ref_softmax_and_log_softmax(z)
    assert np.isnan(total[[0, 1, 2, 3, 5, 6]]).all() and np.isfinite(total[[4, *range(7, 12)]]).all()
    # a zero tie for the max puts two 1s into the sum: log(total) >= log 2
    # moves every zero of z - max off zero in the log-softmax, whatever its sign
    ties = z[7:11] == 0
    assert (total[7:11] >= 2).all() and (log_p[7:11][ties] < 0).all()
    # the unique -0.0 maximum: the sum is 1, so the log-softmax keeps the zero of z - max
    assert total[11, 0] == 1.0 and np.signbit(z[11, 0]) and (z[11, 1:] < 0).all()
    assert log_p[11, 0] == 0.0


def max_cases():
    rng = np.random.default_rng(10)
    edges = edge_rows()
    return [rng.normal(size=7), rng.normal(size=(4, 7)), rng.normal(size=(3, 4, 5)),
            rng.normal(size=(2, 3, 4, 5)), edges, edges.T.copy(),
            np.stack([edges, edges[::-1]]), np.zeros((0, 4)), np.zeros((3, 0)),
            np.zeros((2, 0, 3))]


@pytest.mark.parametrize("z", max_cases())
def test_max_along_matches_the_out_of_place_reference(z):
    # every axis, by either sign; an empty reduced axis raises ndarray.max's ValueError
    for axis in range(-z.ndim, z.ndim):
        got = outcome(max_along, z, axis)
        assert same_outcome(got, outcome(z.max, axis=axis, keepdims=True))
        assert isinstance(got, ValueError) == (z.shape[axis] == 0)


def margin_cases():
    rng = np.random.default_rng(11)
    p = ref_stable_softmax(rng.normal(size=(40, 5)))
    y = p.argmax(axis=-1)
    p[:10] = np.round(p[:10] * 4) / 4  # a coarse grid: tied maxima, with and without the label
    p[10] = [0.4, 0.4, 0.2, 0.0, 0.0]
    p[11] = [0.0, 0.0, 0.0, 0.0, 0.0]
    p[12] = [-0.0, 0.0, -0.0, 0.0, -0.0]
    y[10:13] = [0, 3, 2]
    tied = np.full((6, 4), 0.25)
    two = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, -0.0]])
    return [(p, y), (p[0], y[0]), (tied, np.arange(6) % 4), (two, np.array([0, 1, 1])),
            (np.ones((3, 1)), np.zeros(3, int))]  # one class: the -inf mask is the row's max


@pytest.mark.parametrize("p, y", margin_cases())
def test_margin_matches_the_out_of_place_reference(p, y):
    got, want = margin(p, y), ref_margin(p, y)
    assert same_bits(got, want) and type(got) is type(want)


def kl_cases():
    rng = np.random.default_rng(9)
    q = ref_stable_softmax(rng.normal(scale=4.0, size=(3, 7, 4)))
    p = ref_stable_softmax(rng.normal(scale=4.0, size=(3, 7, 4)))
    q[0, :3, 1] = 0.0  # 0 * log(0 / p) = 0
    q[1, 0] = [1.0, 0.0, 0.0, 0.0]
    p[1, 1] = [1e-300, 0.0, 1.0, 0.0]  # p floored
    q[2, 2, 0] = 1e-320  # positive, below the floor
    return [(q, p), (q[0], p[0]), (q[1, 1], p[1, 1]), (q, p[0])]


@pytest.mark.parametrize("q, p", kl_cases())
def test_kl_rows_matches_the_out_of_place_reference(q, p):
    assert same_bits(kl_rows(q, p), ref_kl_rows(q, p))


# --- no argument is written ----------------------------------------------------------------


def unchanged(fn, *arrays):
    """Call ``fn`` on ``arrays``; True if each array keeps its bytes."""
    before = [a.tobytes() for a in arrays]
    fn(*arrays)
    return [a.tobytes() for a in arrays] == before


@pytest.mark.parametrize("runs", [(), (3,)])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_forward_and_predict_write_no_input(runs, activation):
    cfg = NetConfig(hidden_sizes=[6, 5], activation=activation, tap_layers=[0, 1])
    _, net, head = netcore.flatten(netcore.init_net(cfg, 4, 3, 0),
                                   tdhead.init_head([6, 5], 3, 4, 1), runs=runs)
    X = np.random.default_rng(1).normal(size=(40, 4))  # negative entries, which relu would zero
    assert unchanged(lambda X: netcore.forward_batch(net, cfg, X), X)
    assert unchanged(lambda X: netcore.predict(net, cfg, X, head=head, features=True), X)
    taps = [np.random.default_rng(2).normal(size=(*runs, 40, d)) for d in (6, 5)]
    assert unchanged(lambda *taps: tdhead.head_forward_batch(head, list(taps)), *taps)


def test_softmaxes_and_kl_rows_write_no_input():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(3, 8, 5))
    assert unchanged(stable_softmax, z)
    q, p = ref_stable_softmax(z), ref_stable_softmax(rng.normal(size=(3, 8, 5)))
    q[0, 0, 0] = 0.0
    assert unchanged(kl_rows, q, p)


def test_update_batch_writes_no_input():
    store, rows = TDStore(10, 3, (2,)), range(10)
    first, probs = ref_stable_softmax(np.random.default_rng(4).normal(size=(2, 2, 10, 3)))
    with store.epoch(rows):
        store.update_batch(rows, first)  # nonzero means, so that probs - means differs from probs
    with store.epoch(rows[::-1]):
        assert unchanged(lambda probs: store.update_batch(range(0, 4), probs), probs[:, :4])
        assert unchanged(lambda probs: store.update_batch(range(4, 10), probs), probs[:, 4:])


@pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
def test_apply_update_writes_only_theta_and_its_state(kind):
    theta = np.random.default_rng(5).normal(size=(2, 30))
    grad = np.random.default_rng(6).normal(size=(2, 30))
    opt = OptimizerConfig(kind=kind, weight_decay=5e-4)
    st = netcore.init_opt_state(theta)
    assert unchanged(lambda grad: netcore.apply_update(theta, grad, st, opt, 0), grad)


def test_opt_states_share_no_scratch():
    theta = np.zeros((2, 30))
    a, b = netcore.init_opt_state(theta), netcore.init_opt_state(theta)
    arrays = [theta, a.m, a.v, *a.scratch, b.m, b.v, *b.scratch]
    assert all(not np.shares_memory(x, y)
               for i, x in enumerate(arrays) for y in arrays[i + 1 :])
    assert all(s.shape == theta.shape and s.dtype == theta.dtype for s in a.scratch)
