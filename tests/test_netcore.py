import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dynal
from dynal import netcore, tdhead
from dynal.netcore import ACTIVATIONS, NetConfig, OptimizerConfig
from dynal.numutil import kl_rows, softmax_and_log_softmax


def tiny_cfg(activation="tanh"):
    return NetConfig(hidden_sizes=[3], tap_layers=[0], activation=activation)


class TestInit:
    def test_deterministic_in_the_seed(self):
        cfg = NetConfig(hidden_sizes=[4, 5], tap_layers=[0, 1])
        a, b, c = (netcore.init_net(cfg, 3, 3, s) for s in (3, 3, 4))
        for p, q in zip(a.params(), b.params()):
            np.testing.assert_array_equal(p, q)
        assert not np.array_equal(a.weights[0], c.weights[0])
        h1, h2, h3 = (tdhead.init_head([4, 5], 3, 2, s) for s in (3, 3, 4))
        for p, q in zip(h1.params(), h2.params()):
            np.testing.assert_array_equal(p, q)
        assert not np.array_equal(h1.weights[-1], h3.weights[-1])

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_draws_rebuilt_by_hand(self, activation, seed):
        """Each state's weights come from one generator of its seed, layer
        after layer: the net's hidden layers N(0, gain/fan_in) (gain 2 for
        relu, He; 1 for tanh, Xavier) and its output layer N(0, 1/fan_in);
        the head's tap reductions N(0, 2/d) in tap order, then its output
        layer N(0, 1/(r * n_taps)).  Biases are zero."""
        gain = 2.0 if activation == "relu" else 1.0
        rng = np.random.default_rng(seed)
        net_w = [rng.normal(0.0, np.sqrt(gain / 3), size=(4, 3)),
                 rng.normal(0.0, np.sqrt(gain / 4), size=(5, 4)),
                 rng.normal(0.0, np.sqrt(1.0 / 5), size=(3, 5))]
        rng = np.random.default_rng(seed)
        head_w = [rng.normal(0.0, np.sqrt(2.0 / 4), size=(2, 4)),
                  rng.normal(0.0, np.sqrt(2.0 / 5), size=(2, 5)),
                  rng.normal(0.0, np.sqrt(1.0 / (2 * 2)), size=(3, 4))]
        cfg = NetConfig(hidden_sizes=[4, 5], activation=activation, tap_layers=[0, 1])
        net = netcore.init_net(cfg, 3, 3, seed)
        head = tdhead.init_head([4, 5], 3, 2, seed)
        expected = []
        for state, weights in ((net, net_w), (head, head_w)):
            assert len(state.weights) == len(state.biases) == len(weights)
            for w, b, w_hand in zip(state.weights, state.biases, weights):
                assert w.shape == w_hand.shape and np.array_equal(w, w_hand)
                b_hand = np.zeros(w_hand.shape[0])
                assert b.shape == b_hand.shape and np.array_equal(b, b_hand)
                expected += [w_hand, b_hand]
        theta, _, _ = netcore.flatten(net, head)
        assert np.array_equal(theta, np.concatenate([p.ravel() for p in expected]))
        # The head's output layer comes last: its weights, then its bias.
        out_w = head_w[-1]
        assert np.array_equal(theta[-3:], np.zeros(3))
        assert np.array_equal(theta[-3 - out_w.size : -3], out_w.ravel())

    def test_width_and_class_count_are_arguments(self):
        cfg = NetConfig(hidden_sizes=[4, 5], tap_layers=[1])
        state = netcore.init_net(cfg, 3, 6, 0)
        assert [w.shape for w in state.weights] == [(4, 3), (5, 4), (6, 5)]
        assert [b.shape for b in state.biases] == [(4,), (5,), (6,)]
        with pytest.raises(ValueError, match="input_dim must be positive"):
            netcore.init_net(cfg, 0, 6, 0)
        with pytest.raises(ValueError, match="n_classes must be >= 2"):
            netcore.init_net(cfg, 3, 1, 0)

    def test_config_holds_the_net_section_only(self):
        assert [f.name for f in dataclasses.fields(NetConfig)] == [
            "hidden_sizes", "activation", "tap_layers"]
        assert NetConfig() == NetConfig(hidden_sizes=[32, 32], activation="relu",
                                        tap_layers=[0, 1])


class TestForward:
    def test_zero_net_gives_uniform(self):
        cfg = NetConfig(hidden_sizes=[4], tap_layers=[0])
        state = netcore.init_net(cfg, 3, 5, 0)
        for w in state.weights:
            w[:] = 0.0
        trace = netcore.forward_batch(state, cfg, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(trace.probs[0], np.full(5, 0.2), atol=1e-15)

    def test_deterministic(self):
        cfg = tiny_cfg()
        state = netcore.init_net(cfg, 2, 2, 5)
        x = np.array([0.3, -0.7])
        t1 = netcore.forward_batch(state, cfg, x)
        t2 = netcore.forward_batch(state, cfg, x)
        assert np.array_equal(t1.probs, t2.probs)
        X = np.atleast_2d(x)
        assert np.array_equal(netcore._forward(state, cfg, X)[1],
                              netcore._forward(state, cfg, X)[1])

    def test_matches_independent_reimplementation(self):
        # Per-unit loop evaluation, sharing no code with the library path.
        cfg = NetConfig(hidden_sizes=[5, 3], tap_layers=[0, 1], activation="relu")
        state = netcore.init_net(cfg, 4, 3, 12)
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
        np.testing.assert_allclose(netcore._forward(state, cfg, np.atleast_2d(x))[1][0], logits,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.probs[0], probs, rtol=0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        cfg = tiny_cfg()
        state = netcore.init_net(cfg, 2, 2, 5)
        with pytest.raises(ValueError):
            netcore.forward_batch(state, cfg, np.zeros(3))

    def test_softmax_always_on_simplex(self):
        cfg = NetConfig(hidden_sizes=[8], tap_layers=[0])
        state = netcore.init_net(cfg, 6, 7, 3)
        rng = np.random.default_rng(1)
        X = rng.normal(scale=5.0, size=(50, 6))
        probs = netcore.forward_batch(state, cfg, X).probs
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


# Bit-identity of ``predict`` against one whole-array pass, run in a fresh
# interpreter with one BLAS thread: several threads split a product's rows at
# a point that depends on its size, so the whole-array pass's own bits then
# depend on the thread count under some kernels (Haswell's, for one).  The
# child inherits the rest of the environment, ``OPENBLAS_CORETYPE`` and
# ``NPY_DISABLE_CPU_FEATURES`` included.
_PREDICT_BITS = """
import json, sys
import numpy as np
from dynal import netcore, tdhead
sizes = json.loads(sys.argv[1])
X = np.random.default_rng(5).normal(0.0, 3.0, size=(max(sizes), 12))
same = {}

def bits(got, net, head, cfg, n):
    whole = netcore.forward_batch(net, cfg, X[:n])
    whole_head = tdhead.head_forward_batch(head, whole.taps)[0]
    return [np.array_equal(a.view(np.int64), b.view(np.int64))
            for a, b in zip(got, (whole.probs, whole_head, whole.activations[-1]))]

def stacked(states):
    return netcore.NetState.from_params([np.stack(p) for p in zip(*(s.params() for s in states))])

for seed, hidden, activation, taps in [(0, [32, 32], "relu", [0, 1]), (1, [24, 40], "tanh", [1])]:
    cfg = netcore.NetConfig(hidden_sizes=hidden, tap_layers=taps, activation=activation)
    nets = [netcore.init_net(cfg, 12, 8, seed + 100 * r) for r in range(3)]
    heads = [tdhead.init_head([hidden[t] for t in taps], 8, 16, seed + 10 + 100 * r)
             for r in range(3)]
    for n in sizes:
        got = netcore.predict(nets[0], cfg, X[:n], head=heads[0], features=True)
        same[f"{activation} {n}"] = bits(got, nets[0], heads[0], cfg, n)
        # three runs on a leading run axis: each run's slice against its own whole-array pass
        got = netcore.predict(stacked(nets), cfg, X[:n], head=stacked(heads), features=True)
        same[f"runs {activation} {n}"] = [bits([a[r] for a in got], nets[r], heads[r], cfg, n)
                                          for r in range(3)]
print(json.dumps(same))
"""
BIT_SIZES = [16383, 16384, 16385, 24577, 100001]


@pytest.fixture(scope="module")
def predict_bits():
    src = str(Path(dynal.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _PREDICT_BITS, json.dumps(BIT_SIZES)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


class TestPredict:
    """``predict``: forward and head passes in aligned row blocks."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 200000))
    @example(0)
    @example(8191)
    @example(8192)
    @example(16383)
    @example(16384)
    @example(24576)
    @example(200000)
    def test_row_blocks_rule(self, n):
        blocks = netcore.row_blocks(n)
        B = netcore.BLOCK_ROWS
        # contiguous cover of range(n), blocks starting at multiples of BLOCK_ROWS
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(b.start % B == 0 and b.step is None for b in blocks)
        assert all(b.stop - b.start == B for b in blocks[:-1])
        last = blocks[-1].stop - blocks[-1].start
        assert last == n if n < 2 * B else B <= last < 2 * B

    @pytest.mark.parametrize("n", BIT_SIZES)
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_bits_of_one_whole_array_pass(self, predict_bits, activation, n):
        # probabilities, head probabilities and features, as int64 views
        assert predict_bits[f"{activation} {n}"] == [True, True, True]

    @pytest.mark.parametrize("n", BIT_SIZES)
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_run_axis_bits_of_each_runs_whole_array_pass(self, predict_bits, activation, n):
        # three nets and heads stacked on a leading run axis: each run's probabilities, head
        # probabilities and features, as int64 views, against that run's own 2-D pass
        assert predict_bits[f"runs {activation} {n}"] == [[True, True, True]] * 3

    def test_one_block_is_the_whole_array_call(self, monkeypatch):
        cfg = NetConfig(hidden_sizes=[8, 6], tap_layers=[0, 1])
        net = netcore.init_net(cfg, 5, 3, 0)
        X = np.random.default_rng(0).normal(size=(40, 5))
        rows = []
        forward = netcore.forward_batch
        monkeypatch.setattr(netcore, "forward_batch",
                            lambda s, c, X: rows.append(len(X)) or forward(s, c, X))
        probs, head_probs, feats = netcore.predict(net, cfg, X)
        whole = forward(net, cfg, X)
        assert rows == [40] and head_probs is None and feats is None
        assert probs.tobytes() == whole.probs.tobytes()

    def test_blocks_go_through_the_module_attributes(self, monkeypatch):
        # so that a tracer wrapping forward_batch and head_forward_batch sees every block
        cfg = NetConfig(hidden_sizes=[4], tap_layers=[0])
        net, head = netcore.init_net(cfg, 3, 2, 0), tdhead.init_head([4], 2, 2, 1)
        seen = []
        forward, head_forward = netcore.forward_batch, tdhead.head_forward_batch
        monkeypatch.setattr(netcore, "forward_batch",
                            lambda s, c, X: seen.append(("net", len(X))) or forward(s, c, X))
        monkeypatch.setattr(tdhead, "head_forward_batch",
                            lambda h, t: seen.append(("head", len(t[0]))) or head_forward(h, t))
        probs, head_probs, feats = netcore.predict(net, cfg, np.zeros((20000, 3)), head=head,
                                                   features=True)
        assert seen == [("net", 8192), ("head", 8192), ("net", 11808), ("head", 11808)]
        assert probs.shape == head_probs.shape == (20000, 2) and feats.shape == (20000, 4)

    def test_peak_memory_is_a_block_not_the_pass(self):
        cfg = NetConfig(hidden_sizes=[32, 32], tap_layers=[0, 1])
        net, head = netcore.init_net(cfg, 12, 8, 0), tdhead.init_head([32, 32], 8, 16, 1)
        X = np.random.default_rng(0).normal(size=(50000, 12))

        def peak(f):
            tracemalloc.start()
            try:
                f()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def whole():
            tdhead.head_forward_batch(head, netcore.forward_batch(net, cfg, X).taps)

        assert peak(lambda: netcore.predict(net, cfg, X, head=head)) < peak(whole) / 3


def cross_entropy(probs, y):
    """The cross entropy grad_joint reports for one sample whose classifier
    outputs ``probs``: zero output weights, log-probability output biases."""
    C = len(probs)
    cfg = NetConfig(hidden_sizes=[1], tap_layers=[0])
    state = netcore.init_net(cfg, 1, C, 0)
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
        cfg = NetConfig(hidden_sizes=[3], tap_layers=[0], activation=activation)
        net = netcore.init_net(cfg, 2, 2, seed)
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
        logits = netcore._forward(net, cfg, X)[1]
        ce = -softmax_and_log_softmax(logits, axis=1)[1][np.arange(len(y)), y]
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


    def test_kernel_writes_every_gradient_entry(self):
        # Training reuses one gradient vector: each step overwrites all of it.
        cfg = NetConfig(hidden_sizes=[3, 4], tap_layers=[1, 0, 1])
        net = netcore.init_net(cfg, 2, 3, 2)
        head = tdhead.init_head([4, 3, 4], 3, 2, 3)
        rng = np.random.default_rng(4)
        X, y, q = rng.normal(size=(5, 2)), rng.integers(0, 3, size=5), rng.dirichlet([1.0] * 3, 5)
        want, lt, lm = netcore.grad_joint(net, cfg, head, X, y, q, lam=0.5)
        grad, grad_net, grad_head = netcore._gradient(net, head)
        hot = netcore.one_hot(y, 3)
        for _ in range(2):
            grad[:] = np.nan
            assert netcore._joint_step(net, cfg, head, X, hot, lambda p: q, 0.5, np.arange(5),
                                       grad_net, grad_head) is None
            assert grad.tobytes() == want.tobytes()
            # the kernel forms no losses; its exact-loss path gives grad_joint's
            _, _, _, shifted, total, p = netcore._joint_forward(net, cfg, head, X)
            per_ce, per_kl = netcore._joint_losses(shifted, total, p[1], hot, q, 0.5, np.arange(5))
            assert (float(per_ce.mean()), float(per_kl.mean())) == (lt, lm)

    def test_targets_come_from_the_forward_pass_probabilities(self):
        cfg, net, head, X, y, _ = self.make_instance(12)
        seen = []
        grad, grad_net, grad_head = netcore._gradient(net, head)
        netcore._joint_step(net, cfg, head, X, netcore.one_hot(y, 2),
                            lambda p: seen.append(p) or p, 1.0, np.arange(4), grad_net, grad_head)
        assert len(seen) == 1
        assert seen[0].tobytes() == netcore.forward_batch(net, cfg, X).probs.tobytes()

    def test_head_that_does_not_fit_the_taps_rejected(self):
        cfg, net, head, X, y, q = self.make_instance(3)
        with pytest.raises(ValueError, match="expected 2 taps, got 1"):
            netcore.grad_joint(net, cfg, tdhead.init_head([3, 3], 2, 4, 0), X, y, q, lam=1.0)
        with pytest.raises(ValueError, match="tap dim 3 != expected 5"):
            netcore.grad_joint(net, cfg, tdhead.init_head([5], 2, 4, 0), X, y, q, lam=1.0)

    def test_input_checks_keep_their_order(self):
        cfg, net, head, X, y, q = self.make_instance(3)
        bad_y = np.array([0, 1, 2, 0])
        with pytest.raises(ValueError, match="lam"):
            netcore.grad_joint(net, cfg, head, np.zeros((4, 3)), bad_y, q[:2], lam=-1.0)
        with pytest.raises(ValueError, match="expected feature dim 2, got 3"):
            netcore.grad_joint(net, cfg, head, np.zeros((4, 3)), bad_y, q[:2], lam=1.0)
        with pytest.raises(ValueError, match="class index out of range for 2 classes"):
            netcore.grad_joint(net, cfg, head, X, bad_y, q[:2], lam=1.0)
        with pytest.raises(ValueError, match=r"td_targets shape \(2, 2\) != \(4, 2\)"):
            netcore.grad_joint(net, cfg, head, X, y, q[:2], lam=1.0)


class TestFlatten:
    def test_states_are_views_into_one_vector(self):
        cfg = tiny_cfg()
        net = netcore.init_net(cfg, 2, 2, 5)
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
        net = netcore.init_net(NetConfig(hidden_sizes=[3, 4], tap_layers=[0]), 2, 2, 0)
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
        theta, state = netcore.flatten(netcore.init_net(cfg, 2, 2, 5))
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
        theta, state = netcore.flatten(netcore.init_net(cfg, 2, 2, 5))
        opt = OptimizerConfig(kind="sgd_momentum", initial_lr=0.1, momentum=0.0, weight_decay=0.0)
        before = [p.copy() for p in state.params()]
        grad = np.full_like(theta, 2.0)
        netcore.apply_update(theta, grad, netcore.init_opt_state(theta), opt, epoch=0)
        for p, b in zip(state.params(), before):
            np.testing.assert_allclose(p, b - 0.2, atol=1e-15)

    def test_adam_matches_hand_recurrence(self):
        # independent evaluation of the update for a single scalar parameter
        cfg = NetConfig(hidden_sizes=[1], tap_layers=[0])
        theta, state = netcore.flatten(netcore.init_net(cfg, 1, 2, 0))
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
        theta, state = netcore.flatten(netcore.init_net(cfg, 2, 2, 5))
        opt = OptimizerConfig(kind="sgd_momentum", initial_lr=0.1, momentum=0.0, weight_decay=0.5)
        before = [p.copy() for p in state.params()]
        netcore.apply_update(theta, np.zeros_like(theta), netcore.init_opt_state(theta), opt,
                             epoch=0)
        for p, b in zip(state.params(), before):
            np.testing.assert_allclose(p, b - 0.1 * 0.5 * b, atol=1e-15)

    def test_shape_mismatch_moves_no_parameter(self):
        theta, _ = netcore.flatten(netcore.init_net(tiny_cfg(), 2, 2, 5))
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
        theta, _, fhead = netcore.flatten(netcore.init_net(tiny_cfg(), 2, 2, 5), head)
        grad = np.zeros_like(theta)
        grad[-1] = np.inf  # theta ends with the head's output bias
        opt = OptimizerConfig(kind=kind)
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite network parameters"):
            netcore.apply_update(theta, grad, netcore.init_opt_state(theta), opt, epoch=0)
        assert not np.isfinite(fhead.biases[-1][-1])
        assert np.isfinite(theta[:-1]).all()

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    @pytest.mark.parametrize("runs", [(), (3,)])
    @pytest.mark.parametrize("weight_decay", [5e-3, 0.0])
    def test_flat_update_is_the_per_parameter_recurrence_bit_for_bit(self, kind, runs,
                                                                     weight_decay):
        # The per-array recurrence written out here, entry for entry in the
        # same operation order, over 60 steps that cross decay_epoch; with
        # runs=(3,) each run's row gets its own gradients.  weight_decay 0.0
        # is the pilot's Adam setting.
        cfg = NetConfig(hidden_sizes=[5, 4], tap_layers=[0])
        head = tdhead.init_head([5], 3, 2, 8)
        opt = OptimizerConfig(kind=kind, initial_lr=0.05, weight_decay=weight_decay,
                              decay_epoch=3, decay_factor=0.1)
        ref = [np.tile(p, (*runs, *[1] * p.ndim))
               for p in netcore.init_net(cfg, 3, 3, 7).params() + head.params()]
        theta, net, fhead = netcore.flatten(netcore.init_net(cfg, 3, 3, 7), head, runs=runs)
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
            netcore.apply_update(theta, np.concatenate([g.reshape(*runs, -1) for g in grads],
                                                       axis=-1), st, opt, epoch)
            for a, b in zip(net.params() + fhead.params(), ref):
                assert a.tobytes() == b.tobytes()


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
    cfg = NetConfig(hidden_sizes=[8], tap_layers=[0])
    theta, state, head = netcore.flatten(netcore.init_net(cfg, 2, 2, seed),
                                          tdhead.init_head([8], 2, 4, 0))
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
