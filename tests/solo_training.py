"""An independent reference for one run's training bits.

``alengine.train_joint`` is a ``train_lockstep`` of one run: its arrays
carry a leading run axis of length 1, so every matmul is a stacked one.
``train_2d`` is the same training written on 2-D arrays, with no run
axis: features (n, dim), one-hot labels (n, C) and sample ids (n,), a
``netcore.Joint`` of no runs stepped on them and the TD store folding
dataset indices.  A test that holds the two equal, bit for bit, checks
the run axis against code that has none.
"""

import numpy as np

from dynal import alengine, netcore, tdhead
from dynal.alengine import TrainResult, kl_analysis
from dynal.tdtrack import TDStore


def train_2d(labeled, cfg, cycle, test=None) -> TrainResult:
    """``alengine.train_joint(labeled, cfg, cycle, test)`` on 2-D arrays."""
    net_cfg, n_classes = cfg.net, labeled.n_classes
    X = np.atleast_2d(np.asarray(labeled.X, dtype=np.float64))
    hot = netcore.one_hot(np.asarray(labeled.y, dtype=int), n_classes)
    n, dim = X.shape

    def seed(stream):
        return alengine._stream_seed(cfg.seed, cycle, stream)

    net0 = netcore.init_net(net_cfg, dim, n_classes, seed(alengine._STREAM_NET))
    head0 = tdhead.init_head([net_cfg.hidden_sizes[t] for t in net_cfg.tap_layers], n_classes,
                             cfg.head.reduce_dim, seed(alengine._STREAM_HEAD))
    joint = netcore.Joint.init(net_cfg, net0, head0)
    shuffle_rng = np.random.default_rng(seed(alengine._STREAM_SHUFFLE))
    store = TDStore(n, n_classes)
    snapshots = []  # per epoch with ``test``: (test-set probs, head probs)

    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        X_p, hot_p, ids_p = X[perm], hot[perm], labeled.ids[perm]
        for lo in range(0, n, cfg.batch_size):
            rows, b = perm[lo : lo + cfg.batch_size], slice(lo, lo + cfg.batch_size)
            joint.step(X_p[b], hot_p[b], lambda probs: store.update_batch(rows, probs), cfg.lam,
                       ids_p[b], cfg.opt, epoch)
        if test is not None:
            tt = netcore.forward_batch(joint.net, net_cfg, test.X)
            snapshots.append((tt.probs, tdhead.head_forward_batch(joint.head, tt.taps)[0]))
    return TrainResult(joint.net, net_cfg, joint.head, store,
                       kl_analysis(snapshots) if test is not None else None)
