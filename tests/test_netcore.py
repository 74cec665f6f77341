import math

import numpy as np
import pytest

from dynal import netcore, tdhead
from dynal.netcore import NetConfig, OptimizerConfig


def tiny_cfg(activation="tanh", seed=5):
    return NetConfig(input_dim=2, hidden_sizes=[3], n_classes=2, tap_layers=[0],
                     activation=activation, seed=seed)


class TestForward:
    def test_zero_net_gives_uniform(self):
        cfg = NetConfig(input_dim=3, hidden_sizes=[4], n_classes=5, seed=0)
        state = netcore.init_net(cfg)
        for w in state.weights:
            w[:] = 0.0
        trace = netcore.forward_batch(state, cfg, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(trace.probs[0], np.full(5, 0.2), atol=1e-15)

    def test_deterministic(self):
        cfg = tiny_cfg()
        state = netcore.init_net(cfg)
        x = np.array([0.3, -0.7])
        t1 = netcore.forward_batch(state, cfg, x)
        t2 = netcore.forward_batch(state, cfg, x)
        assert np.array_equal(t1.probs, t2.probs)
        assert np.array_equal(t1.logits, t2.logits)

    def test_matches_independent_reimplementation(self):
        # Per-unit loop evaluation, sharing no code with the library path.
        cfg = NetConfig(input_dim=4, hidden_sizes=[5, 3], n_classes=3,
                        tap_layers=[0, 1], activation="relu", seed=12)
        state = netcore.init_net(cfg)
        rng = np.random.default_rng(77)
        x = rng.normal(size=4)
        a = list(x)
        for w, b in zip(state.weights[:-1], state.biases[:-1]):
            nxt = []
            for i in range(w.shape[0]):
                z = b[i] + sum(w[i, j] * a[j] for j in range(w.shape[1]))
                nxt.append(max(z, 0.0))
            a = nxt
        w, b = state.weights[-1], state.biases[-1]
        logits = [b[i] + sum(w[i, j] * a[j] for j in range(w.shape[1])) for i in range(w.shape[0])]
        mx = max(logits)
        exps = [math.exp(v - mx) for v in logits]
        probs = [e / sum(exps) for e in exps]

        trace = netcore.forward_batch(state, cfg, x)
        np.testing.assert_allclose(trace.logits[0], logits, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.probs[0], probs, rtol=0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        cfg = tiny_cfg()
        state = netcore.init_net(cfg)
        with pytest.raises(ValueError):
            netcore.forward_batch(state, cfg, np.zeros(3))

    def test_softmax_always_on_simplex(self):
        cfg = NetConfig(input_dim=6, hidden_sizes=[8], n_classes=7, seed=3)
        state = netcore.init_net(cfg)
        rng = np.random.default_rng(1)
        X = rng.normal(scale=5.0, size=(50, 6))
        probs = netcore.forward_batch(state, cfg, X).probs
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def cross_entropy(probs, y):
    """The cross entropy joint_loss reports for one sample whose classifier
    outputs ``probs``: zero output weights, log-probability output biases."""
    cfg = NetConfig(input_dim=1, hidden_sizes=[1], n_classes=len(probs), seed=0)
    state = netcore.init_net(cfg)
    state.weights[-1][:] = 0.0
    with np.errstate(divide="ignore"):
        state.biases[-1][:] = np.log(probs)
    return netcore.joint_loss(state, cfg, None, np.zeros((1, 1)), np.array([y]), None, 0.0)[0]


class TestCrossEntropy:
    def test_one_hot_is_zero(self):
        assert cross_entropy(np.array([0.0, 1.0, 0.0]), 1) == 0.0

    def test_uniform_ten_classes(self):
        p = np.full(10, 0.1)
        assert cross_entropy(p, 3) == pytest.approx(math.log(10), abs=1e-12)

    def test_derived_value(self):
        # oracle: direct -ln 0.2
        got = cross_entropy(np.array([0.7, 0.2, 0.1]), 1)
        assert got == pytest.approx(-math.log(0.2), abs=1e-12)
        assert got == pytest.approx(1.609438, abs=1e-6)

    def test_bad_class_index(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.5, 0.5]), 2)


class TestGradJoint:
    def make_instance(self, seed, activation="tanh"):
        cfg = NetConfig(input_dim=2, hidden_sizes=[3], n_classes=2, tap_layers=[0],
                        activation=activation, seed=seed)
        net = netcore.init_net(cfg)
        hcfg = tdhead.HeadConfig(tap_dims=[3], n_classes=2, reduce_dim=4, seed=seed + 1)
        head = tdhead.init_head(hcfg)
        rng = np.random.default_rng(seed + 2)
        X = rng.normal(size=(4, 2))
        y = rng.integers(0, 2, size=4)
        q = rng.dirichlet([1.0, 1.0], size=4)
        return cfg, net, head, X, y, q

    def test_lambda_zero_equals_pure_cross_entropy(self):
        cfg, net, head, X, y, q = self.make_instance(40)
        g0, hg0, lt0, _ = netcore.grad_joint(net, cfg, head, X, y, q, lam=0.0)
        gce, _, ltc, _ = netcore.grad_joint(net, cfg, head, X, y, None, lam=0.0)
        assert lt0 == ltc
        for a, b in zip(g0, gce):
            np.testing.assert_array_equal(a, b)
        assert all(np.all(h == 0) for h in hg0)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_finite_difference_agreement(self, fd_grads, rel_err, lam, activation):
        cfg, net, head, X, y, q = self.make_instance(17, activation=activation)
        ng, hg, _, _ = netcore.grad_joint(net, cfg, head, X, y, q, lam=lam)

        def total():
            lt, lm = netcore.joint_loss(net, cfg, head, X, y, q, lam)
            return lt + lam * lm

        fd_net = fd_grads(total, net.params())
        fd_head = fd_grads(total, head.params())
        assert rel_err(ng, fd_net) < 1e-4
        assert rel_err(hg, fd_head) < 1e-4

    @pytest.mark.parametrize("with_targets", [True, False])
    def test_losses_equal_the_oracle(self, with_targets):
        cfg, net, head, X, y, q = self.make_instance(5)
        q = q if with_targets else None
        _, _, lt, lm = netcore.grad_joint(net, cfg, head, X, y, q, lam=1.0)
        assert (lt, lm) == netcore.joint_loss(net, cfg, head, X, y, q, 1.0)

    def test_targets_equal_predictions_zero_module_loss(self):
        cfg, net, head, X, y, _ = self.make_instance(8)
        trace = netcore.forward_batch(net, cfg, X)
        preds, _ = tdhead.head_forward_batch(head, trace.taps)
        ng, hg, _, lm = netcore.grad_joint(net, cfg, head, X, y, preds, lam=1.0)
        assert lm == pytest.approx(0.0, abs=1e-12)
        # KL gradient (pred - target) vanishes at the optimum
        for h in hg:
            np.testing.assert_allclose(h, 0.0, atol=1e-12)

    def test_detach_cuts_backbone_flow(self):
        cfg, net, head, X, y, q = self.make_instance(23)
        g_detached, _, _, _ = netcore.grad_joint(net, cfg, head, X, y, q, lam=1.0, detach=True)
        g_pure, _, _, _ = netcore.grad_joint(net, cfg, head, X, y, q, lam=0.0)
        for a, b in zip(g_detached, g_pure):
            np.testing.assert_array_equal(a, b)

    def test_non_finite_loss_names_sample(self):
        cfg, net, head, X, y, q = self.make_instance(31, activation="relu")
        # drive one sample's logits to +inf/-inf so its loss goes nan
        net.weights[0][:] = 1.0
        net.weights[-1][0, :] = 1.0
        net.weights[-1][1, :] = -1.0
        X[2] = np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="sample id 9"):
                netcore.grad_joint(net, cfg, head, X, y, q, lam=1.0,
                                   sample_ids=np.array([7, 8, 9, 10]))


class TestOptimizer:
    def test_zero_grads_decay_velocity(self):
        cfg = tiny_cfg()
        state = netcore.init_net(cfg)
        opt = OptimizerConfig(kind="sgd_momentum", initial_lr=0.1, momentum=0.9, weight_decay=0.0)
        before = [p.copy() for p in state.params()]
        zeros = [np.zeros_like(p) for p in state.params()]
        st = netcore.init_opt_state(state.params(), opt.kind)
        netcore.apply_update(state.params(), zeros, st, opt, epoch=0)
        for p, b in zip(state.params(), before):
            np.testing.assert_array_equal(p, b)
        # preload a velocity and confirm the decay factor
        st.velocities[0][:] = 1.0
        netcore.apply_update(state.params(), zeros, st, opt, epoch=0)
        np.testing.assert_allclose(st.velocities[0], 0.9, atol=1e-15)

    def test_plain_sgd_step(self):
        cfg = tiny_cfg()
        state = netcore.init_net(cfg)
        opt = OptimizerConfig(kind="sgd_momentum", initial_lr=0.1, momentum=0.0, weight_decay=0.0)
        before = [p.copy() for p in state.params()]
        grads = [np.full_like(p, 2.0) for p in state.params()]
        netcore.apply_update(state.params(), grads, netcore.init_opt_state(state.params(), opt.kind),
                             opt, epoch=0)
        for p, b in zip(state.params(), before):
            np.testing.assert_allclose(p, b - 0.2, atol=1e-15)

    def test_adam_matches_hand_recurrence(self):
        # independent evaluation of the update for a single scalar parameter
        cfg = NetConfig(input_dim=1, hidden_sizes=[1], n_classes=2, seed=0)
        state = netcore.init_net(cfg)
        theta0 = float(state.weights[0][0, 0])
        g = 0.5
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = OptimizerConfig(kind="adam", initial_lr=lr, beta1=b1, beta2=b2,
                              epsilon=eps, weight_decay=0.0, decay_epoch=100)
        grads = [np.zeros_like(p) for p in state.params()]
        grads[0][0, 0] = g
        netcore.apply_update(state.params(), grads, netcore.init_opt_state(state.params(), opt.kind),
                             opt, epoch=0)

        m = (1 - b1) * g
        v = (1 - b2) * g * g
        m_hat = m / (1 - b1)
        v_hat = v / (1 - b2)
        expected = theta0 - lr * m_hat / (math.sqrt(v_hat) + eps)
        assert float(state.weights[0][0, 0]) == pytest.approx(expected, abs=1e-12)

    def test_weight_decay_augments_gradient(self):
        cfg = tiny_cfg()
        state = netcore.init_net(cfg)
        opt = OptimizerConfig(kind="sgd_momentum", initial_lr=0.1, momentum=0.0, weight_decay=0.5)
        before = [p.copy() for p in state.params()]
        zeros = [np.zeros_like(p) for p in state.params()]
        netcore.apply_update(state.params(), zeros, netcore.init_opt_state(state.params(), opt.kind),
                             opt, epoch=0)
        for p, b in zip(state.params(), before):
            np.testing.assert_allclose(p, b - 0.1 * 0.5 * b, atol=1e-15)


    def test_shape_mismatch_moves_no_parameter(self):
        state = netcore.init_net(tiny_cfg())
        opt = OptimizerConfig(kind="sgd_momentum")
        before = [p.copy() for p in state.params()]
        grads = [np.ones_like(p) for p in state.params()]
        grads[-1] = np.ones(5)
        with pytest.raises(ValueError, match="gradient shape"):
            netcore.apply_update(state.params(), grads,
                                 netcore.init_opt_state(state.params(), opt.kind), opt, epoch=0)
        for p, b in zip(state.params(), before):
            np.testing.assert_array_equal(p, b)


class TestLrSchedule:
    def test_before_decay(self):
        opt = OptimizerConfig(initial_lr=0.1, decay_epoch=160, decay_factor=0.1)
        assert netcore.lr_at(opt, 159) == pytest.approx(0.1)

    def test_at_decay(self):
        opt = OptimizerConfig(initial_lr=0.1, decay_epoch=160, decay_factor=0.1)
        assert netcore.lr_at(opt, 160) == pytest.approx(0.01)
        assert netcore.lr_at(opt, 199) == pytest.approx(0.01)

    def test_identity_schedule(self):
        opt = OptimizerConfig(initial_lr=0.05, decay_epoch=10, decay_factor=1.0)
        assert all(netcore.lr_at(opt, e) == 0.05 for e in range(30))


class TestTrainingBehavior:
    def test_deterministic_loss_trajectory(self):
        def run():
            cfg = NetConfig(input_dim=2, hidden_sizes=[8], n_classes=2, seed=3)
            state = netcore.init_net(cfg)
            opt = OptimizerConfig(kind="sgd_momentum", initial_lr=0.1, momentum=0.9,
                                  weight_decay=5e-4, decay_epoch=40)
            rng = np.random.default_rng(0)
            X = rng.normal(size=(40, 2)) + np.where(rng.random(40)[:, None] < 0.5, 2.0, -2.0)
            y = (X[:, 0] > 0).astype(int)
            losses = []
            st = netcore.init_opt_state(state.params(), opt.kind)
            for epoch in range(10):
                g, _, lt, _ = netcore.grad_joint(state, cfg, None, X, y, None, lam=0.0)
                netcore.apply_update(state.params(), g, st, opt, epoch)
                losses.append(lt)
            return losses

        assert run() == run()

    def test_loss_drops_on_separable_blobs(self):
        rng = np.random.default_rng(42)
        n = 60
        X = np.concatenate([rng.normal(size=(n, 2)) + [3, 3], rng.normal(size=(n, 2)) - [3, 3]])
        y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
        cfg = NetConfig(input_dim=2, hidden_sizes=[8], n_classes=2, seed=1)
        state = netcore.init_net(cfg)
        opt = OptimizerConfig(kind="sgd_momentum", initial_lr=0.1, momentum=0.9,
                              weight_decay=0.0, decay_epoch=1000)
        first = None
        st = netcore.init_opt_state(state.params(), opt.kind)
        for epoch in range(50):
            g, _, lt, _ = netcore.grad_joint(state, cfg, None, X, y, None, lam=0.0)
            if first is None:
                first = lt
            netcore.apply_update(state.params(), g, st, opt, epoch)
        _, _, last, _ = netcore.grad_joint(state, cfg, None, X, y, None, lam=0.0)
        assert last < 0.1 * first
