import math

import numpy as np
import pytest

from dynal import netcore, tdhead
from dynal.netcore import NetConfig, OptimizerConfig
from dynal.numutil import kl_rows, log_softmax


def tiny_cfg(activation="tanh"):
    return NetConfig(input_dim=2, hidden_sizes=[3], n_classes=2, tap_layers=[0],
                     activation=activation)


class TestInit:
    def test_deterministic_in_the_seed(self):
        cfg = NetConfig(input_dim=3, hidden_sizes=[4, 5], n_classes=3, tap_layers=[0, 1])
        a, b, c = (netcore.init_net(cfg, s) for s in (3, 3, 4))
        for p, q in zip(a.params(), b.params()):
            np.testing.assert_array_equal(p, q)
        assert not np.array_equal(a.weights[0], c.weights[0])
        h1, h2, h3 = (tdhead.init_head([4, 5], 3, 2, s) for s in (3, 3, 4))
        for p, q in zip(h1.params(), h2.params()):
            np.testing.assert_array_equal(p, q)
        assert not np.array_equal(h1.out_weight, h3.out_weight)


class TestForward:
    def test_zero_net_gives_uniform(self):
        cfg = NetConfig(input_dim=3, hidden_sizes=[4], n_classes=5)
        state = netcore.init_net(cfg, 0)
        for w in state.weights:
            w[:] = 0.0
        trace = netcore.forward_batch(state, cfg, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(trace.probs[0], np.full(5, 0.2), atol=1e-15)

    def test_deterministic(self):
        cfg = tiny_cfg()
        state = netcore.init_net(cfg, 5)
        x = np.array([0.3, -0.7])
        t1 = netcore.forward_batch(state, cfg, x)
        t2 = netcore.forward_batch(state, cfg, x)
        assert np.array_equal(t1.probs, t2.probs)
        assert np.array_equal(t1.logits, t2.logits)

    def test_matches_independent_reimplementation(self):
        # Per-unit loop evaluation, sharing no code with the library path.
        cfg = NetConfig(input_dim=4, hidden_sizes=[5, 3], n_classes=3,
                        tap_layers=[0, 1], activation="relu")
        state = netcore.init_net(cfg, 12)
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
        state = netcore.init_net(cfg, 5)
        with pytest.raises(ValueError):
            netcore.forward_batch(state, cfg, np.zeros(3))

    def test_softmax_always_on_simplex(self):
        cfg = NetConfig(input_dim=6, hidden_sizes=[8], n_classes=7)
        state = netcore.init_net(cfg, 3)
        rng = np.random.default_rng(1)
        X = rng.normal(scale=5.0, size=(50, 6))
        probs = netcore.forward_batch(state, cfg, X).probs
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def cross_entropy(probs, y):
    """The cross entropy grad_joint reports for one sample whose classifier
    outputs ``probs``: zero output weights, log-probability output biases."""
    C = len(probs)
    cfg = NetConfig(input_dim=1, hidden_sizes=[1], n_classes=C)
    state = netcore.init_net(cfg, 0)
    state.weights[-1][:] = 0.0
    with np.errstate(divide="ignore"):
        state.biases[-1][:] = np.log(probs)
    head = tdhead.init_head([1], C, 1, 0)
    return netcore.grad_joint(state, cfg, head, np.zeros((1, 1)), np.array([y]),
                              np.full((1, C), 1 / C), lam=0.0)[1]


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


def flat(arrays):
    """Arrays laid end to end in the layout of ``netcore.flatten``."""
    return np.concatenate([a.ravel() for a in arrays])


def n_params(state):
    """Length of ``state``'s part of a flat parameter or gradient vector."""
    return sum(p.size for p in state.params())


class TestGradJoint:
    def make_instance(self, seed, activation="tanh"):
        cfg = NetConfig(input_dim=2, hidden_sizes=[3], n_classes=2, tap_layers=[0],
                        activation=activation)
        net = netcore.init_net(cfg, seed)
        head = tdhead.init_head([3], 2, 4, seed + 1)
        rng = np.random.default_rng(seed + 2)
        X = rng.normal(size=(4, 2))
        y = rng.integers(0, 2, size=4)
        q = rng.dirichlet([1.0, 1.0], size=4)
        return cfg, net, head, X, y, q

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_bad_lam_rejected(self, lam):
        cfg, net, head, X, y, q = self.make_instance(40)
        with pytest.raises(ValueError, match="lam must be nonnegative and finite"):
            netcore.grad_joint(net, cfg, head, X, y, q, lam=lam)

    def test_lambda_zero_equals_pure_cross_entropy(self):
        # At lam = 0 the targets reach no gradient: two target sets give the
        # same net gradient bit for bit, and the head's part is zero.
        cfg, net, head, X, y, q = self.make_instance(40)
        g0, lt0, _ = netcore.grad_joint(net, cfg, head, X, y, q, lam=0.0)
        g1, lt1, _ = netcore.grad_joint(net, cfg, head, X, y, q[:, ::-1], lam=0.0)
        n_net = n_params(net)
        assert lt0 == lt1
        assert g0.shape == g1.shape == (n_net + n_params(head),)
        np.testing.assert_array_equal(g0[:n_net], g1[:n_net])
        assert np.all(g0[n_net:] == 0) and np.all(g1[n_net:] == 0)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_finite_difference_agreement(self, fd_grads, rel_err, lam, activation):
        cfg, net, head, X, y, q = self.make_instance(17, activation=activation)
        grad, _, _ = netcore.grad_joint(net, cfg, head, X, y, q, lam=lam)

        def total():
            _, lt, lm = netcore.grad_joint(net, cfg, head, X, y, q, lam=lam)
            return lt + lam * lm

        fd = flat(fd_grads(total, net.params() + head.params()))
        assert rel_err([grad], [fd]) < 1e-4

    def test_losses_equal_the_oracle(self):
        # The reported losses are the forward code's, composed here.
        cfg, net, head, X, y, q = self.make_instance(5)
        _, lt, lm = netcore.grad_joint(net, cfg, head, X, y, q, lam=1.0)
        trace = netcore.forward_batch(net, cfg, X)
        pt, _ = tdhead.head_forward_batch(head, trace.taps)
        ce = -log_softmax(trace.logits, axis=1)[np.arange(len(y)), y]
        assert (lt, lm) == (float(ce.mean()), float(kl_rows(q, pt).mean()))

    def test_targets_equal_predictions_zero_module_loss(self):
        cfg, net, head, X, y, _ = self.make_instance(8)
        trace = netcore.forward_batch(net, cfg, X)
        preds, _ = tdhead.head_forward_batch(head, trace.taps)
        grad, _, lm = netcore.grad_joint(net, cfg, head, X, y, preds, lam=1.0)
        assert lm == pytest.approx(0.0, abs=1e-12)
        # KL gradient (pred - target) vanishes at the optimum
        np.testing.assert_allclose(grad[n_params(net):], 0.0, atol=1e-12)

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


class TestFlatten:
    def test_states_are_views_into_one_vector(self):
        cfg = tiny_cfg()
        net = netcore.init_net(cfg, 5)
        head = tdhead.init_head([3], 2, 4, 1)
        expected = flat(net.params() + head.params())
        theta, fnet, fhead = netcore.flatten(net, head)
        assert theta.dtype == np.float64 and theta.flags.c_contiguous
        np.testing.assert_array_equal(theta, expected)
        for p, q in zip(net.params() + head.params(), fnet.params() + fhead.params()):
            assert p.shape == q.shape and np.shares_memory(q, theta)
        theta += 1.0
        np.testing.assert_array_equal(flat(fnet.params() + fhead.params()), expected + 1.0)

    def test_from_params_inverts_params(self):
        net = netcore.init_net(NetConfig(input_dim=2, hidden_sizes=[3, 4], n_classes=2), 0)
        head = tdhead.init_head([3, 4], 2, 16, 0)
        for state in (net, head):
            rebuilt = type(state).from_params(state.params())
            assert all(a is b for a, b in zip(rebuilt.params(), state.params()))


class TestOptimizerConfig:
    @pytest.mark.parametrize("field, value", [
        ("initial_lr", 0.0), ("initial_lr", np.inf), ("initial_lr", np.nan),
        ("weight_decay", -1e-4), ("weight_decay", np.inf), ("weight_decay", np.nan),
        ("beta1", 1.0), ("beta1", -0.1), ("beta1", np.nan),
        ("beta2", 1.0), ("beta2", -0.1), ("beta2", np.nan),
        ("epsilon", 0.0), ("epsilon", -1e-8), ("epsilon", np.inf), ("epsilon", np.nan),
    ])
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(kind="adam", **{field: value})

    def test_range_ends_accepted(self):
        OptimizerConfig(kind="adam", initial_lr=1e-300, weight_decay=0.0, beta1=0.0, beta2=0.0,
                        epsilon=1e-300)


class TestOptimizer:
    def test_zero_grads_decay_velocity(self):
        cfg = tiny_cfg()
        theta, state = netcore.flatten(netcore.init_net(cfg, 5))
        opt = OptimizerConfig(kind="sgd_momentum", initial_lr=0.1, momentum=0.9, weight_decay=0.0)
        before = theta.copy()
        zeros = np.zeros_like(theta)
        st = netcore.init_opt_state(theta)
        netcore.apply_update(theta, zeros, st, opt, epoch=0)
        np.testing.assert_array_equal(theta, before)
        # preload a velocity and confirm the decay factor
        st.m[:] = 1.0
        netcore.apply_update(theta, zeros, st, opt, epoch=0)
        np.testing.assert_allclose(st.m, 0.9, atol=1e-15)

    def test_plain_sgd_step(self):
        cfg = tiny_cfg()
        theta, state = netcore.flatten(netcore.init_net(cfg, 5))
        opt = OptimizerConfig(kind="sgd_momentum", initial_lr=0.1, momentum=0.0, weight_decay=0.0)
        before = [p.copy() for p in state.params()]
        grad = np.full_like(theta, 2.0)
        netcore.apply_update(theta, grad, netcore.init_opt_state(theta), opt, epoch=0)
        for p, b in zip(state.params(), before):
            np.testing.assert_allclose(p, b - 0.2, atol=1e-15)

    def test_adam_matches_hand_recurrence(self):
        # independent evaluation of the update for a single scalar parameter
        cfg = NetConfig(input_dim=1, hidden_sizes=[1], n_classes=2)
        theta, state = netcore.flatten(netcore.init_net(cfg, 0))
        theta0 = float(state.weights[0][0, 0])
        g = 0.5
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = OptimizerConfig(kind="adam", initial_lr=lr, beta1=b1, beta2=b2,
                              epsilon=eps, weight_decay=0.0, decay_epoch=100)
        grads = [np.zeros_like(p) for p in state.params()]
        grads[0][0, 0] = g
        netcore.apply_update(theta, flat(grads), netcore.init_opt_state(theta), opt, epoch=0)

        m = (1 - b1) * g
        v = (1 - b2) * g * g
        m_hat = m / (1 - b1)
        v_hat = v / (1 - b2)
        expected = theta0 - lr * m_hat / (math.sqrt(v_hat) + eps)
        assert float(state.weights[0][0, 0]) == pytest.approx(expected, abs=1e-12)

    def test_weight_decay_augments_gradient(self):
        cfg = tiny_cfg()
        theta, state = netcore.flatten(netcore.init_net(cfg, 5))
        opt = OptimizerConfig(kind="sgd_momentum", initial_lr=0.1, momentum=0.0, weight_decay=0.5)
        before = [p.copy() for p in state.params()]
        netcore.apply_update(theta, np.zeros_like(theta), netcore.init_opt_state(theta), opt,
                             epoch=0)
        for p, b in zip(state.params(), before):
            np.testing.assert_allclose(p, b - 0.1 * 0.5 * b, atol=1e-15)

    def test_shape_mismatch_moves_no_parameter(self):
        theta, _ = netcore.flatten(netcore.init_net(tiny_cfg(), 5))
        opt = OptimizerConfig(kind="sgd_momentum")
        before = theta.copy()
        st = netcore.init_opt_state(theta)
        with pytest.raises(ValueError, match="gradient shape"):
            netcore.apply_update(theta, np.ones(theta.size - 1), st, opt, epoch=0)
        np.testing.assert_array_equal(theta, before)
        assert not st.m.any() and st.step == 0

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    def test_step_to_a_non_finite_head_bias_raises(self, kind):
        head = tdhead.init_head([3], 2, 4, 1)
        theta, _, fhead = netcore.flatten(netcore.init_net(tiny_cfg(), 5), head)
        grad = np.zeros_like(theta)
        grad[-1] = np.inf  # theta ends with the head's output bias
        opt = OptimizerConfig(kind=kind)
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite network parameters"):
            netcore.apply_update(theta, grad, netcore.init_opt_state(theta), opt, epoch=0)
        assert not np.isfinite(fhead.out_bias[-1])
        assert np.isfinite(theta[:-1]).all()

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    def test_flat_update_is_the_per_parameter_recurrence_bit_for_bit(self, kind):
        # The per-array recurrence written out here, entry for entry in the
        # same operation order, over 60 steps that cross decay_epoch.
        cfg = NetConfig(input_dim=3, hidden_sizes=[5, 4], n_classes=3)
        head = tdhead.init_head([5], 3, 2, 8)
        opt = OptimizerConfig(kind=kind, initial_lr=0.05, weight_decay=5e-3, decay_epoch=3,
                              decay_factor=0.1)
        ref = [p.copy() for p in netcore.init_net(cfg, 7).params() + head.params()]
        theta, net, fhead = netcore.flatten(netcore.init_net(cfg, 7), head)
        st = netcore.init_opt_state(theta)
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        rng = np.random.default_rng(3)
        for t in range(1, 61):
            epoch = (t - 1) // 10
            lr = opt.initial_lr if epoch < opt.decay_epoch else opt.initial_lr * opt.decay_factor
            grads = [rng.normal(size=p.shape) for p in ref]
            for i, (p, g) in enumerate(zip(ref, grads)):
                g = g + opt.weight_decay * p
                if kind == "sgd_momentum":
                    m[i] = opt.momentum * m[i] + g
                    p -= lr * m[i]
                else:
                    m[i] = opt.beta1 * m[i] + (1.0 - opt.beta1) * g
                    v[i] = opt.beta2 * v[i] + (1.0 - opt.beta2) * g * g
                    m_hat = m[i] / (1.0 - opt.beta1 ** t)
                    v_hat = v[i] / (1.0 - opt.beta2 ** t)
                    p -= lr * m_hat / (np.sqrt(v_hat) + opt.epsilon)
            netcore.apply_update(theta, flat(grads), st, opt, epoch)
            for a, b in zip(net.params() + fhead.params(), ref):
                np.testing.assert_array_equal(a, b)


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


def classifier_with_head(seed):
    """A 2-8-2 classifier and a head in one parameter vector; at lam = 0
    the head and its targets reach no classifier gradient."""
    cfg = NetConfig(input_dim=2, hidden_sizes=[8], n_classes=2)
    theta, state, head = netcore.flatten(netcore.init_net(cfg, seed), tdhead.init_head([8], 2, 4, 0))
    return cfg, theta, state, head


class TestTrainingBehavior:
    def test_deterministic_loss_trajectory(self):
        def run():
            cfg, theta, state, head = classifier_with_head(3)
            opt = OptimizerConfig(kind="sgd_momentum", initial_lr=0.1, momentum=0.9,
                                  weight_decay=5e-4, decay_epoch=40)
            rng = np.random.default_rng(0)
            X = rng.normal(size=(40, 2)) + np.where(rng.random(40)[:, None] < 0.5, 2.0, -2.0)
            y = (X[:, 0] > 0).astype(int)
            q = np.full((len(y), 2), 0.5)
            losses = []
            st = netcore.init_opt_state(theta)
            for epoch in range(10):
                g, lt, _ = netcore.grad_joint(state, cfg, head, X, y, q, lam=0.0)
                netcore.apply_update(theta, g, st, opt, epoch)
                losses.append(lt)
            return losses

        assert run() == run()

    def test_loss_drops_on_separable_blobs(self):
        rng = np.random.default_rng(42)
        n = 60
        X = np.concatenate([rng.normal(size=(n, 2)) + [3, 3], rng.normal(size=(n, 2)) - [3, 3]])
        y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
        cfg, theta, state, head = classifier_with_head(1)
        q = np.full((len(y), 2), 0.5)
        opt = OptimizerConfig(kind="sgd_momentum", initial_lr=0.1, momentum=0.9,
                              weight_decay=0.0, decay_epoch=1000)
        first = None
        st = netcore.init_opt_state(theta)
        for epoch in range(50):
            g, lt, _ = netcore.grad_joint(state, cfg, head, X, y, q, lam=0.0)
            if first is None:
                first = lt
            netcore.apply_update(theta, g, st, opt, epoch)
        _, last, _ = netcore.grad_joint(state, cfg, head, X, y, q, lam=0.0)
        assert last < 0.1 * first
