import math

import numpy as np
import pytest

from dynal import netcore, tdhead
from dynal.netcore import OptimizerConfig
from dynal.numutil import kl_rows
from dynal.tdhead import head_backward, head_forward_batch, init_head


def make_head(seed=0, tap_dims=(3, 4), C=3, reduce_dim=5):
    return init_head(list(tap_dims), C, reduce_dim, seed)


def head_forward(head, taps):
    """Head output for one sample (1-D taps) through the batched pass."""
    return head_forward_batch(head, taps)[0][0]


def module_loss(head, taps_batch, targets):
    """Batch-mean KL(targets || head output) and its exact head gradients,
    built from the pieces grad_joint uses for the head's share of the loss."""
    probs, concat = head_forward_batch(head, taps_batch)
    out = netcore.NetState.from_params([np.empty_like(p) for p in head.params()])
    head_backward(head, taps_batch, concat, (probs - targets) / len(targets), out)
    return float(kl_rows(targets, probs).mean()), out.params()


class TestHeadForward:
    def test_zero_weights_give_uniform(self):
        head = make_head()
        for p in head.params():
            p[:] = 0.0
        out = head_forward(head, [np.ones(3), np.ones(4)])
        np.testing.assert_allclose(out, np.full(3, 1 / 3), atol=1e-15)

    def test_output_on_simplex(self):
        head = make_head(seed=4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = head_forward(head, [rng.normal(size=3), rng.normal(size=4)])
            assert np.all(out >= 0)
            assert abs(out.sum() - 1.0) < 1e-9

    def test_matches_independent_chain_evaluation(self):
        head = make_head(seed=9)
        rng = np.random.default_rng(3)
        taps = [rng.normal(size=3), rng.normal(size=4)]
        # affine -> relu -> concat -> affine -> softmax, evaluated longhand
        reduced = []
        for t, w, b in zip(taps, head.weights[:-1], head.biases[:-1]):
            s = [b[i] + sum(w[i, j] * t[j] for j in range(w.shape[1])) for i in range(w.shape[0])]
            reduced.extend(max(v, 0.0) for v in s)
        logits = [
            head.biases[-1][i]
            + sum(head.weights[-1][i, j] * reduced[j] for j in range(len(reduced)))
            for i in range(head.weights[-1].shape[0])
        ]
        mx = max(logits)
        exps = [math.exp(v - mx) for v in logits]
        expected = np.array([e / sum(exps) for e in exps])
        np.testing.assert_allclose(head_forward(head, taps), expected, rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        head = make_head()
        with pytest.raises(ValueError):
            head_forward(head, [np.ones(3)])
        with pytest.raises(ValueError):
            head_forward(head, [np.ones(2), np.ones(4)])


class TestKLDivergence:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = rng.dirichlet(np.ones(4))
            assert kl_rows(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_derived_value(self):
        # oracle: 0.5 ln 2 + 0.5 ln(2/3)
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        got = kl_rows(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.143841, abs=1e-6)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            assert kl_rows(p, q) >= 0.0

    def test_zero_target_entries(self):
        assert kl_rows(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_rows(np.ones(2) / 2, np.ones(3) / 3)


class TestModuleLoss:
    def test_zero_at_matching_targets(self):
        head = make_head(seed=2)
        rng = np.random.default_rng(5)
        taps = [rng.normal(size=(6, 3)), rng.normal(size=(6, 4))]
        preds, _ = tdhead.head_forward_batch(head, taps)
        loss, grads = module_loss(head, taps, preds)
        assert loss == pytest.approx(0.0, abs=1e-12)
        for g in grads:
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_gradients_match_finite_differences(self, fd_grads, rel_err):
        head = make_head(seed=6)
        rng = np.random.default_rng(8)
        taps = [rng.normal(size=(5, 3)), rng.normal(size=(5, 4))]
        targets = rng.dirichlet(np.ones(3), size=5)
        _, grads = module_loss(head, taps, targets)
        fd = fd_grads(lambda: module_loss(head, taps, targets)[0], head.params())
        assert rel_err(grads, fd) < 1e-4

    def test_batch_mean_equals_mean_of_singles(self):
        head = make_head(seed=3)
        rng = np.random.default_rng(2)
        taps = [rng.normal(size=(4, 3)), rng.normal(size=(4, 4))]
        targets = rng.dirichlet(np.ones(3), size=4)
        batch_loss, _ = module_loss(head, taps, targets)
        singles = [
            module_loss(head, [taps[0][i : i + 1], taps[1][i : i + 1]], targets[i : i + 1])[0]
            for i in range(4)
        ]
        assert batch_loss == pytest.approx(np.mean(singles), abs=1e-12)


class TestTrainingProperties:
    def test_head_alone_fits_fixed_targets(self):
        # capacity sanity: 10 samples, frozen inputs, 500 steps
        head = make_head(seed=1, tap_dims=(6,), C=4, reduce_dim=16)
        rng = np.random.default_rng(0)
        taps = [rng.normal(size=(10, 6))]
        targets = rng.dirichlet(np.ones(4), size=10)
        opt = OptimizerConfig(kind="adam", initial_lr=0.05, weight_decay=0.0, decay_epoch=10**6)
        theta, head = netcore.flatten(head)
        opt_state = netcore.init_opt_state(theta)
        loss = None
        for step in range(500):
            loss, grads = module_loss(head, taps, targets)
            netcore.apply_update(theta, np.concatenate([g.ravel() for g in grads]), opt_state,
                                 opt, epoch=0)
        assert loss < 1e-3
