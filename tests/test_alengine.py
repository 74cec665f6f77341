from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynal import alengine, datasets, netcore, tdhead
from dynal.alengine import ALConfig, evaluate, kl_analysis, separation_auroc
from dynal.datasets import DatasetSpec, ImbalanceSpec, build_dataset
from dynal.estimators import StrategyKind
from dynal.netcore import NetConfig, OptimizerConfig
from dynal.numutil import kl_rows
from dynal.tdtrack import TDStore


def small_data(seed=3, n_classes=4, per_class=60):
    spec = DatasetSpec(generator="gaussian_mixture", n_classes=n_classes, dim=6,
                       per_class=per_class, radius=3.0, noise=1.0,
                       test_fraction=0.25, seed=seed)
    return build_dataset(spec)


def small_cfg(strategy=StrategyKind.RANDOM, seed=0, **kw):
    base = dict(
        net=NetConfig(hidden_sizes=[16, 16], tap_layers=[0, 1]),
        opt=OptimizerConfig(kind="sgd_momentum", initial_lr=0.05, momentum=0.9,
                            weight_decay=5e-4, decay_epoch=12, decay_factor=0.1),
        strategy=strategy,
        initial_labeled=12,
        budget_per_cycle=8,
        n_cycles=2,
        subset_size=30,
        epochs=15,
        batch_size=16,
        lam=1.0,
        seed=seed,
    )
    base.update(kw)
    return ALConfig(**base)


class TestEvaluate:
    def test_uniform_net_on_balanced_two_class(self):
        cfg = NetConfig(hidden_sizes=[3], tap_layers=[0])
        net = netcore.init_net(cfg, 2, 2, 0)
        for p in net.params():
            p[:] = 0.0
        test = datasets.Dataset(
            ids=np.arange(10),
            X=np.random.default_rng(0).normal(size=(10, 2)),
            y=np.array([0, 1] * 5),
            n_classes=2,
        )
        acc, per_class = evaluate(net, cfg, test)
        assert acc == pytest.approx(0.5)  # argmax ties resolve to class 0
        assert per_class[0] == pytest.approx(1.0)
        assert per_class[1] == pytest.approx(0.0)

    def test_perfect_net_scores_one(self):
        # a net evaluated against its own predictions is perfect by construction
        train, _ = small_data(seed=9)
        cfg = small_cfg(epochs=3, n_cycles=1)
        result = alengine.train_joint(train, cfg, cycle=0)
        probs = netcore.forward_batch(result.net, result.net_cfg, train.X).probs
        relabeled = datasets.Dataset(train.ids, train.X, probs.argmax(axis=1), train.n_classes)
        acc, per_class = evaluate(result.net, result.net_cfg, relabeled)
        assert acc == 1.0
        assert all(np.isnan(v) or v == 1.0 for v in per_class)

    def test_accuracy_is_mean_recall_on_balanced_test(self):
        train, test = small_data(seed=5)
        cfg = small_cfg(epochs=5)
        result = alengine.train_joint(train.by_ids(train.ids[:40]), cfg, cycle=0)
        acc, per_class = evaluate(result.net, result.net_cfg, test)
        assert acc == pytest.approx(np.mean(per_class), abs=1e-12)


class TestSeparationAuroc:
    def test_perfect_separation(self):
        assert separation_auroc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0], bool)) == 1.0

    def test_all_ties_is_half(self):
        assert separation_auroc(np.ones(6), np.array([1, 1, 1, 0, 0, 0], bool)) == 0.5

    def test_derived_example(self):
        scores = np.array([0.9, 0.8, 0.7, 0.1])
        flags = np.array([True, True, False, False])
        assert separation_auroc(scores, flags) == 1.0

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            scores = np.round(rng.random(n), 1)
            flags = rng.random(n) < 0.4
            if flags.all() or (~flags).all():
                continue
            pos = scores[flags]
            neg = scores[~flags]
            wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
            oracle = wins / (len(pos) * len(neg))
            assert separation_auroc(scores, flags) == pytest.approx(oracle, abs=1e-12)

    def test_single_group_is_state_error(self):
        with pytest.raises(RuntimeError):
            separation_auroc(np.array([0.5, 0.6]), np.array([True, True]))

    @pytest.mark.parametrize("at", [0, 2], ids=["minor", "major"])
    def test_nan_score_rejected(self, at):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        scores[at] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            separation_auroc(scores, np.array([1, 1, 0, 0], bool))

    def test_infinite_scores_rank_at_the_ends(self):
        scores = np.array([np.inf, 0.5, -np.inf, np.inf, 0.5])
        flags = np.array([True, True, True, False, False])
        # minor vs major pairs: inf ties inf, beats 0.5; 0.5 loses to inf, ties 0.5; -inf loses both
        assert separation_auroc(scores, flags) == (0.5 + 1 + 0 + 0.5 + 0 + 0) / 6


class TestALConfig:
    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_bad_lam_rejected(self, lam):
        with pytest.raises(ValueError, match="lam must be nonnegative and finite"):
            small_cfg(lam=lam)

    def test_equal_configs_train_equal_models(self):
        # The model follows from the config's value and the cycle: two
        # separately built equal configs train it bit for bit alike.
        train, _ = small_data()
        labeled = train.by_ids(train.ids[:24])
        a = alengine.train_joint(labeled, small_cfg(seed=3, epochs=3), cycle=2)
        b = alengine.train_joint(labeled, small_cfg(seed=3, epochs=3), cycle=2)
        c = alengine.train_joint(labeled, small_cfg(seed=4, epochs=3), cycle=2)
        assert a.net_cfg == small_cfg().net
        for p, q in zip(a.net.params() + a.head.params(), b.net.params() + b.head.params()):
            np.testing.assert_array_equal(p, q)
        np.testing.assert_array_equal(a.store.values(np.arange(24)), b.store.values(np.arange(24)))
        assert not np.array_equal(a.net.weights[0], c.net.weights[0])


class TestRunCycle:
    def test_labeled_count_invariant(self):
        train, test = small_data()
        cfg = small_cfg(n_cycles=1)
        reports = alengine.run_experiment(train, test, cfg)
        assert len(reports) == 1
        assert reports[0].labeled_count == 12 + 8

    def test_lambda_zero_with_head_strategy_completes(self):
        # the untrained-head ablation: the head scores without ever learning
        train, test = small_data()
        cfg = small_cfg(strategy=StrategyKind.TIDAL_ENTROPY, lam=0.0, n_cycles=1)
        reports = alengine.run_experiment(train, test, cfg)
        assert reports[0].labeled_count == 12 + 8

    def test_budget_equals_subset_selects_everything(self):
        train, test = small_data()
        cfg = small_cfg(strategy=StrategyKind.SNAPSHOT_ENTROPY, n_cycles=1,
                        budget_per_cycle=10, subset_size=10)
        labeled = [int(i) for i in train.ids[:12]]
        pool = train.ids[12:]
        _, report, new_labeled, new_pool = alengine.run_cycle(
            labeled, pool, train, test, cfg, cycle=1
        )
        assert len(report.selected_ids) == 10
        assert len(new_labeled) == 22

    def test_all_strategies_complete(self):
        train, test = small_data()
        for strategy in StrategyKind:
            cfg = small_cfg(strategy=strategy, n_cycles=1, epochs=4)
            reports = alengine.run_experiment(train, test, cfg)
            assert reports[0].labeled_count == 20
            assert len(set(reports[0].selected_ids)) == 8


class TestExperimentInvariants:
    def test_disjoint_and_conserved_pools(self):
        train, test = small_data()
        cfg = small_cfg(n_cycles=3, strategy=StrategyKind.TIDAL_MARGIN, epochs=4)
        labeled = [int(i) for i in train.ids[:12]]
        pool = train.ids[~np.isin(train.ids, labeled)]
        total = set(train.ids.tolist())
        for cycle in (1, 2, 3):
            _, _, labeled, pool = alengine.run_cycle(labeled, pool, train, test, cfg, cycle)
            assert not set(labeled) & set(pool.tolist())
            assert set(labeled) | set(pool.tolist()) == total

    def test_determinism_same_seed(self):
        train, test = small_data()
        cfg = small_cfg(strategy=StrategyKind.TIDAL_ENTROPY, seed=7, epochs=6)
        a = alengine.run_experiment(train, test, cfg)
        b = alengine.run_experiment(train, test, cfg)
        for ra, rb in zip(a, b):
            assert ra.test_accuracy == rb.test_accuracy
            assert ra.selected_ids == rb.selected_ids

    def test_cycle_start_depends_only_on_seed_and_cycle(self):
        # identical first-cycle training across different strategies
        train, test = small_data()
        accs = []
        for strategy in (StrategyKind.RANDOM, StrategyKind.CORESET, StrategyKind.TIDAL_PROB):
            cfg = small_cfg(strategy=strategy, seed=5, epochs=6, n_cycles=1)
            reports = alengine.run_experiment(train, test, cfg)
            accs.append(reports[0].test_accuracy)
        assert accs[0] == accs[1] == accs[2]

    def test_easy_mixture_sanity_band(self):
        # on a cleanly separated mixture, random and dynamics-aware entropy
        # both land above 90% final accuracy across ten seeds
        spec = DatasetSpec(generator="gaussian_mixture", n_classes=4, dim=8, per_class=150,
                           radius=3.0, noise=0.5, test_fraction=0.25, seed=13)
        train, test = build_dataset(spec)
        for strategy in (StrategyKind.RANDOM, StrategyKind.TIDAL_ENTROPY):
            finals = []
            for seed in range(10):
                cfg = small_cfg(
                    net=NetConfig(hidden_sizes=[16, 16], tap_layers=[0, 1]),
                    opt=OptimizerConfig(kind="sgd_momentum", initial_lr=0.05, momentum=0.9,
                                        weight_decay=5e-4, decay_epoch=24, decay_factor=0.1),
                    strategy=strategy, initial_labeled=20, budget_per_cycle=20, n_cycles=3,
                    subset_size=100, epochs=30, batch_size=32, seed=seed,
                )
                reports = alengine.run_experiment(train, test, cfg)
                finals.append(reports[-1].test_accuracy)
            assert np.mean(finals) > 0.9

    def test_small_initial_pool_warns(self):
        train, test = small_data()
        cfg = small_cfg(initial_labeled=2, epochs=2, n_cycles=1)
        with pytest.warns(UserWarning, match="classes"):
            alengine.run_experiment(train, test, cfg)

    def test_pool_exhaustion_terminates_early(self):
        spec = DatasetSpec(generator="gaussian_mixture", n_classes=2, dim=6, per_class=20,
                           radius=4.0, noise=0.5, test_fraction=0.25, seed=1)
        train, test = build_dataset(spec)
        # 30 train samples: 10 initial + 8/cycle exhausts during cycle 3
        cfg = small_cfg(
            net=NetConfig(hidden_sizes=[8], tap_layers=[0]),
            strategy=StrategyKind.SNAPSHOT_ENTROPY,
            initial_labeled=10, budget_per_cycle=8, subset_size=8, n_cycles=10, epochs=2,
        )
        with pytest.warns(UserWarning, match="returning all"):
            reports = alengine.run_experiment(train, test, cfg)
        assert len(reports) == 3
        assert reports[-1].labeled_count == len(train)


    @pytest.mark.parametrize("extra", [0, 1])
    def test_initial_labeling_of_the_whole_train_set_rejected(self, monkeypatch, extra):
        train, test = small_data()
        monkeypatch.setattr(alengine, "train_joint", lambda *a, **k: pytest.fail("trained"))
        cfg = small_cfg(initial_labeled=len(train) + extra)
        with pytest.raises(ValueError, match=f"must be below the training-set size {len(train)}"):
            alengine.run_experiments(train, test, cfg, [cfg.strategy])


class TestSharedCycles:
    """``run_experiments`` trains each (cycle, labeled ids in order) once
    for all strategies of a seed; only scoring and selection are per run."""

    SCORED = (StrategyKind.SNAPSHOT_MARGIN, StrategyKind.CORESET, StrategyKind.TIDAL_ENTROPY)

    @staticmethod
    def count_calls(monkeypatch, name, fail=False):
        calls = []
        orig = getattr(alengine, name)

        def wrapped(*a, **k):
            calls.append(a)
            if fail:
                raise RuntimeError(f"{name} failed")
            return orig(*a, **k)

        monkeypatch.setattr(alengine, name, wrapped)
        return calls

    def test_three_strategies_train_one_model_per_cycle(self, monkeypatch):
        train, test = small_data()
        calls = self.count_calls(monkeypatch, "train_joint")
        outcomes = alengine.run_experiments(train, test, small_cfg(n_cycles=1, epochs=3),
                                            self.SCORED)
        assert len(calls) == 1
        assert all(len(reports) == 1 for reports in outcomes)

    def test_permuted_labeled_ids_do_not_share_an_entry(self, monkeypatch):
        train, test = small_data()
        cfg = small_cfg(strategy=StrategyKind.SNAPSHOT_ENTROPY, epochs=3)
        labeled = [int(i) for i in train.ids[:12]]
        pool = train.ids[12:]
        calls = self.count_calls(monkeypatch, "train_joint")
        memo = {}
        first = alengine.run_cycle(labeled, pool, train, test, cfg, 1, memo=memo)
        permuted = alengine.run_cycle(labeled[::-1], pool, train, test, cfg, 1, memo=memo)
        again = alengine.run_cycle(labeled, pool, train, test, cfg, 1, memo=memo)
        assert len(calls) == 2 and len(memo) == 2
        assert permuted[0] is not first[0]
        assert again[0] is first[0]
        assert again[1].selected_ids == first[1].selected_ids

    def test_memo_is_empty_once_its_cycle_ends(self, monkeypatch):
        train, test = small_data()
        seen = []
        run_cycle = alengine.run_cycle

        def spy(*a, memo, **k):
            # the previous cycle's memo is empty when the next cycle starts
            assert all(not m for c, m in seen if c != a[5])
            seen.append((a[5], memo))
            return run_cycle(*a, memo=memo, **k)

        monkeypatch.setattr(alengine, "run_cycle", spy)
        alengine.run_experiments(train, test, small_cfg(n_cycles=3, epochs=3), self.SCORED)
        assert [c for c, _ in seen] == [1, 1, 1, 2, 2, 2, 3, 3, 3]
        assert len({id(m) for _, m in seen}) == 3
        assert all(not m for _, m in seen)

    def test_grouped_reports_equal_separate_runs(self):
        train, test = small_data()
        cfg = small_cfg(n_cycles=2, epochs=4, dump_scores=True, analysis=True)
        grouped = alengine.run_experiments(train, test, cfg, list(StrategyKind),
                                           minor_classes=[1, 2])
        for strategy, reports in zip(StrategyKind, grouped):
            alone = alengine.run_experiment(train, test, replace(cfg, strategy=strategy),
                                            minor_classes=[1, 2])
            assert reports == alone
            assert all(r.kl_rows for r in reports)
            if strategy not in (StrategyKind.RANDOM, StrategyKind.CORESET):
                assert all(r.score_rows for r in reports)

    def test_failed_strategy_leaves_the_others_to_finish(self, monkeypatch):
        train, test = small_data()
        cfg = small_cfg(n_cycles=2, epochs=3)
        expected = alengine.run_experiments(train, test, cfg, self.SCORED, minor_classes=[1])
        scores = alengine.strategy_scores

        def fail_tidal(kind, *a):
            if kind is StrategyKind.TIDAL_ENTROPY:
                raise RuntimeError("scoring failed")
            return scores(kind, *a)

        monkeypatch.setattr(alengine, "strategy_scores", fail_tidal)
        outcomes = alengine.run_experiments(train, test, cfg, self.SCORED, minor_classes=[1])
        assert isinstance(outcomes[2], RuntimeError)
        assert outcomes[:2] == expected[:2]
        with pytest.raises(RuntimeError, match="scoring failed"):
            alengine.run_experiment(train, test, replace(cfg, strategy=self.SCORED[2]))

    def test_failed_training_stores_nothing(self, monkeypatch):
        train, test = small_data()
        calls = self.count_calls(monkeypatch, "train_joint", fail=True)
        cfg = small_cfg(strategy=self.SCORED[0], n_cycles=2, epochs=3)
        memo = {}
        with pytest.raises(RuntimeError):
            alengine.run_cycle([int(i) for i in train.ids[:12]], train.ids[12:], train, test,
                               cfg, 1, memo=memo)
        assert memo == {}
        # each strategy then trains, and fails, on its own
        outcomes = alengine.run_experiments(train, test, cfg, self.SCORED[:2])
        assert all(isinstance(o, RuntimeError) for o in outcomes)
        assert len(calls) == 1 + 2

    def test_no_strategies_rejected(self):
        train, test = small_data()
        with pytest.raises(ValueError, match="no strategies given"):
            alengine.run_experiments(train, test, small_cfg(), [])


class TestTrainingModes:
    def test_one_update_of_net_and_head_per_batch(self, monkeypatch):
        train, _ = small_data()
        cfg = small_cfg(epochs=2, n_cycles=1)
        thetas = []
        update = netcore.apply_update
        monkeypatch.setattr(netcore, "apply_update",
                            lambda theta, *a: thetas.append(theta) or update(theta, *a))
        result = alengine.train_joint(train.take(np.arange(40)), cfg, cycle=0)
        assert len(thetas) == 2 * 3  # epochs x ceil(40 / batch_size 16)
        # every update moves the one vector that holds all net and head parameters
        assert all(t is thetas[0] for t in thetas)
        params = result.net.params() + result.head.params()
        assert thetas[0].size == sum(p.size for p in params)
        assert all(np.shares_memory(p, thetas[0]) for p in params)

    def test_diverging_optimizer_raises_at_the_update(self, monkeypatch):
        train, _ = small_data()
        # weight decay 1e10 at learning rate 1e300: the first step overflows the weights
        opt = OptimizerConfig(kind="sgd_momentum", initial_lr=1e300, weight_decay=1e10)
        calls = []
        update = netcore.apply_update
        monkeypatch.setattr(netcore, "apply_update",
                            lambda *a: calls.append(1) or update(*a))
        with np.errstate(over="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite network parameters"):
            alengine.train_joint(train, small_cfg(opt=opt, n_cycles=1), cycle=0)
        assert len(calls) == 1

    def test_batch_recording_counts_epochs(self):
        train, test = small_data()
        cfg = small_cfg(epochs=5, n_cycles=1)
        result = alengine.train_joint(train.by_ids(train.ids[:20]), cfg, cycle=0)
        np.testing.assert_array_equal(result.store.count, np.full(20, 5))


def oracle_softmax(z):
    shifted = z - np.max(z, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def oracle_forward(net, cfg, X):
    """Hidden activations, logits and probabilities, layer by layer."""
    act, a = [], X
    for l in range(len(cfg.hidden_sizes)):
        z = a @ net.weights[l].T + net.biases[l]
        a = np.maximum(z, 0.0) if cfg.activation == "relu" else np.tanh(z)
        act.append(a)
    logits = a @ net.weights[-1].T + net.biases[-1]
    return act, logits, oracle_softmax(logits)


def oracle_head_forward(head, taps):
    pre = [t @ w.T + b for t, w, b in zip(taps, head.reduce_weights, head.reduce_biases)]
    concat = np.maximum(np.concatenate(pre, axis=1), 0.0)
    return concat, oracle_softmax(concat @ head.out_weight.T + head.out_bias)


def oracle_grad_joint(net, cfg, head, X, y, q, lam, act, probs):
    """The joint gradient as one batch's separate forward, head and
    backward passes computed it, from an already-computed forward pass,
    gradients concatenated in the layout of ``netcore.flatten(net, head)``."""
    B = X.shape[0]
    taps = [act[l] for l in cfg.tap_layers]
    concat, pt = oracle_head_forward(head, taps)
    onehot = np.zeros_like(probs)
    onehot[np.arange(B), y] = 1.0
    dlogits = (probs - onehot) / B
    dU = lam * (pt - q) / B

    dWo = dU.T @ concat
    dbo = dU.sum(axis=0)
    dconcat = dU @ head.out_weight
    r = head.reduce_weights[0].shape[0]
    head_grads, tap_grads = [], []
    for j, (t, w) in enumerate(zip(taps, head.reduce_weights)):
        cols = slice(j * r, (j + 1) * r)
        dS = dconcat[:, cols] * (concat[:, cols] > 0)
        head_grads += [dS.T @ t, dS.sum(axis=0)]
        tap_grads.append(dS @ w)
    head_grads += [dWo, dbo]
    tap_at_layer = {}
    for layer, g in zip(cfg.tap_layers, tap_grads):
        tap_at_layer[layer] = tap_at_layer.get(layer, 0.0) + g

    n_hidden = len(cfg.hidden_sizes)
    dW, db = [None] * (n_hidden + 1), [None] * (n_hidden + 1)
    dW[-1] = dlogits.T @ act[-1]
    db[-1] = dlogits.sum(axis=0)
    dA = dlogits @ net.weights[-1]
    for l in range(n_hidden - 1, -1, -1):
        if l in tap_at_layer:
            dA = dA + tap_at_layer[l]
        a = act[l]
        dZ = dA * ((a > 0).astype(np.float64) if cfg.activation == "relu" else 1.0 - a * a)
        dW[l] = dZ.T @ (X if l == 0 else act[l - 1])
        db[l] = dZ.sum(axis=0)
        if l > 0:
            dA = dZ @ net.weights[l]
    net_grads = [g for pair in zip(dW, db) for g in pair]
    return np.concatenate([g.ravel() for g in net_grads + head_grads])


def oracle_train_joint(labeled, cfg, cycle, test=None):
    """train_joint as a per-batch loop of separate passes: forward, store
    update, a re-read of the updated means as KL targets, gradient,
    update.  Returns (theta, store, test probs, head probs, test store)."""
    net_cfg, n_classes = cfg.net, labeled.n_classes
    theta, net, head = netcore.flatten(
        netcore.init_net(net_cfg, labeled.dim, n_classes,
                         alengine._stream_seed(cfg.seed, cycle, alengine._STREAM_NET)),
        tdhead.init_head([net_cfg.hidden_sizes[t] for t in net_cfg.tap_layers], n_classes,
                         cfg.head.reduce_dim,
                         alengine._stream_seed(cfg.seed, cycle, alengine._STREAM_HEAD)),
    )
    opt_state = netcore.init_opt_state(theta)
    rng = np.random.default_rng(alengine._stream_seed(cfg.seed, cycle, alengine._STREAM_SHUFFLE))
    n = len(labeled)
    store = TDStore(n, n_classes)
    test_store = TDStore(len(test), n_classes) if test is not None else None
    test_probs, head_probs = [], []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            Xb, yb = labeled.X[idx], labeled.y[idx]
            act, _, probs = oracle_forward(net, net_cfg, Xb)
            store.update_batch(idx, probs)
            grad = oracle_grad_joint(net, net_cfg, head, Xb, yb, store.values(idx), cfg.lam, act,
                                     probs)
            netcore.apply_update(theta, grad, opt_state, cfg.opt, epoch)
        if test is not None:
            act, _, probs = oracle_forward(net, net_cfg, test.X)
            test_probs.append(probs)
            head_probs.append(oracle_head_forward(head, [act[l] for l in net_cfg.tap_layers])[1])
            test_store.update_batch(np.arange(len(test)), probs)
    return theta, store, test_probs, head_probs, test_store


class TestTrainJointOracle:
    """train_joint's fused steps against the per-batch loop of separate
    passes, byte for byte: parameters, TD means and counts, and in
    analysis mode every per-epoch test snapshot."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["sgd_momentum", "adam"]),
           activation=st.sampled_from(["relu", "tanh"]),
           taps=st.sampled_from([[0, 1], [1], [1, 1]]),
           batch_size=st.sampled_from([1, 7, 32]),
           lam=st.sampled_from([0.0, 1.0]),
           analysis=st.booleans(),
           seed=st.integers(0, 3))
    @example(kind="adam", activation="tanh", taps=[1, 1], batch_size=1, lam=1.0, analysis=True,
             seed=0)
    @example(kind="sgd_momentum", activation="relu", taps=[0, 1], batch_size=7, lam=0.0,
             analysis=True, seed=1)
    @example(kind="adam", activation="relu", taps=[1], batch_size=32, lam=1.0, analysis=False,
             seed=2)
    @example(kind="sgd_momentum", activation="tanh", taps=[0, 1], batch_size=32, lam=0.0,
             analysis=False, seed=3)
    def test_equals_the_per_batch_loop(self, kind, activation, taps, batch_size, lam, analysis,
                                       seed):
        train, test = small_data()
        labeled = train.take(np.arange(45))  # neither 7 nor 32 divides 45
        # three epochs with the learning rate stepping down at the third
        opt = OptimizerConfig(kind=kind, initial_lr=0.05 if kind == "sgd_momentum" else 0.01,
                              weight_decay=5e-3, decay_epoch=2, decay_factor=0.1)
        net = NetConfig(hidden_sizes=[16, 16], tap_layers=taps, activation=activation)
        cfg = small_cfg(net=net, opt=opt, epochs=3, batch_size=batch_size, lam=lam, seed=seed)
        result = alengine.train_joint(labeled, cfg, cycle=1, test=test if analysis else None)
        theta, store, test_probs, head_probs, test_store = oracle_train_joint(
            labeled, cfg, cycle=1, test=test if analysis else None)

        got = np.concatenate([p.ravel() for p in result.net.params() + result.head.params()])
        assert got.tobytes() == theta.tobytes()
        assert result.store.mean.tobytes() == store.mean.tobytes()
        assert result.store.count.tobytes() == store.count.tobytes()
        if analysis:
            trace = result.trace
            assert [p.tobytes() for p in trace.test_probs] == [p.tobytes() for p in test_probs]
            assert [p.tobytes() for p in trace.head_probs] == [p.tobytes() for p in head_probs]
            assert trace.test_store.mean.tobytes() == test_store.mean.tobytes()
            assert trace.test_store.count.tobytes() == test_store.count.tobytes()
        else:
            assert result.trace is None


class TestTrainJointChecks:
    """Inputs that cannot change within a run are checked at train_joint's entry."""

    def test_diverging_run_names_a_sample_id(self):
        train, _ = small_data()
        # Row 5's huge features blow the weights up; a later batch's loss
        # overflows.  Ids are not row positions.
        X = train.X[:40].copy()
        X[5] = 1e200
        labeled = datasets.Dataset(1000 + 3 * np.arange(40), X, train.y[:40], train.n_classes)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match=r"non-finite loss for sample id") as err:
            alengine.train_joint(labeled, small_cfg(n_cycles=1), cycle=0)
        named = int(str(err.value).rsplit(" ", 1)[1])
        assert named in labeled.ids.tolist()

    @pytest.mark.parametrize("dim, n_classes", [(6, 4), (3, 5)])
    def test_the_net_takes_its_width_and_class_count_from_the_data(self, dim, n_classes):
        # One config trains on data of any width and class count.
        train, _ = small_data(n_classes=n_classes)
        labeled = datasets.Dataset(train.ids[:30], train.X[:30, :dim], train.y[:30], n_classes)
        result = alengine.train_joint(labeled, small_cfg(epochs=1), cycle=0)
        assert result.net.weights[0].shape == (16, dim)
        assert result.net.biases[-1].shape == (n_classes,)
        assert result.store.mean.shape == (30, n_classes)
        assert result.head.out_bias.shape == (n_classes,)

    @pytest.mark.parametrize("label", [-1, 4])
    def test_label_out_of_range_raises_before_any_update(self, monkeypatch, label):
        train, _ = small_data()
        y = train.y[:40].copy()
        y[33] = label
        labeled = datasets.Dataset(train.ids[:40], train.X[:40], y, train.n_classes)
        calls = []
        monkeypatch.setattr(netcore, "apply_update", lambda *a: calls.append(1))
        with pytest.raises(ValueError, match="class index out of range for 4 classes"):
            alengine.train_joint(labeled, small_cfg(n_cycles=1), cycle=0)
        assert calls == []

    def test_lam_changed_after_the_config_was_built_is_rejected(self):
        train, _ = small_data()
        cfg = small_cfg(n_cycles=1)
        cfg.lam = -1.0
        with pytest.raises(ValueError, match="lam must be nonnegative and finite"):
            alengine.train_joint(train, cfg, cycle=0)


class TestKlAnalysis:
    def test_requires_analysis_mode(self):
        train, test = small_data()
        cfg = small_cfg(epochs=3)
        result = alengine.train_joint(train, cfg, cycle=0)  # no test snapshots
        with pytest.raises(RuntimeError):
            kl_analysis(result)

    def test_rows_shape_and_nonnegativity(self):
        train, test = small_data()
        cfg = small_cfg(epochs=6)
        result = alengine.train_joint(train, cfg, cycle=0, test=test)
        rows = kl_analysis(result)
        assert [r[0] for r in rows] == list(range(1, 7))
        assert all(r[1] >= 0 and r[2] >= 0 for r in rows)

    def test_final_epoch_snapshot_kl_identity(self):
        # KL(final TD || snapshot at T) uses the same snapshots the TD was
        # built from; feeding the mean itself as prediction gives zero.
        train, test = small_data()
        cfg = small_cfg(epochs=4)
        result = alengine.train_joint(train, cfg, cycle=0, test=test)
        trace = result.trace
        final_td = trace.test_store.values(np.arange(len(test)))
        assert kl_rows(final_td, final_td).mean() == pytest.approx(0.0, abs=1e-12)


class TestPilot:
    def test_pilot_outputs_complete(self):
        spec = DatasetSpec(generator="gaussian_mixture", n_classes=4, dim=8, per_class=40,
                           radius=3.0, noise=1.0,
                           imbalance=ImbalanceSpec(ratio=10, profile="step", minor_classes=[2, 3]),
                           test_fraction=0.25, seed=11)
        train, test = build_dataset(spec)
        cfg = small_cfg(
            net=NetConfig(hidden_sizes=[16, 16], tap_layers=[0, 1]),
            opt=OptimizerConfig(kind="adam", initial_lr=5e-3, weight_decay=0.0,
                                decay_epoch=10**6, decay_factor=1.0),
            epochs=10,
        )
        pilot = alengine.run_pilot(train, cfg, minor_classes=[2, 3])
        assert set(pilot.scores) == {
            "snapshot_entropy", "td_entropy", "pred_td_entropy",
            "snapshot_margin", "td_margin", "pred_td_margin",
        }
        assert pilot.is_minor.sum() == (np.isin(train.y, [2, 3])).sum()
        for v in pilot.auroc.values():
            assert 0.0 <= v <= 1.0

    def test_snapshot_labels_are_final_argmax(self):
        spec = DatasetSpec(generator="gaussian_mixture", n_classes=4, dim=6, per_class=30,
                           imbalance=ImbalanceSpec(ratio=5, profile="step", minor_classes=[2, 3]),
                           seed=5)
        train, _ = build_dataset(spec)
        pilot = alengine.run_pilot(train, small_cfg(epochs=3), minor_classes=[2, 3])
        tr = pilot.train_result
        probs = netcore.forward_batch(tr.net, tr.net_cfg, train.X).probs
        np.testing.assert_array_equal(pilot.snapshot_labels, probs.argmax(axis=1))
