from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynal import alengine, datasets, netcore, tdhead
from dynal.alengine import ALConfig, evaluate, kl_analysis, separation_auroc
from dynal.cli import build_run_config, parse_config
from dynal.datasets import DatasetSpec, ImbalanceSpec, build_dataset
from dynal.estimators import StrategyKind
from dynal.netcore import NetConfig, OptimizerConfig
from dynal.numutil import kl_rows
from dynal.tdtrack import TDStore
from solo_training import train_2d
from test_in_place import ref_update_batch, same_bits

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def run_alone(train, test, cfg, minor_classes=None):
    """``run_experiments`` for ``cfg``'s own strategy: its reports, or the
    exception its run raised, raised."""
    (outcome,) = alengine.run_experiments(train, test, cfg, [cfg.strategy], minor_classes)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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

    @staticmethod
    def ref_per_class(pred, test):
        """Per-class recall as ``evaluate`` took it before, one mask per class."""
        per_class = np.full(test.n_classes, np.nan)
        for c in range(test.n_classes):
            mask = test.y == c
            if mask.any():
                per_class[c] = float((pred[mask] == c).mean())
        return per_class

    @pytest.mark.parametrize("absent", [[], [4], [2], [0, 4]])
    def test_per_class_recall_matches_the_loop(self, absent):
        train, test = small_data(seed=6, n_classes=5)
        result = alengine.train_joint(train, small_cfg(epochs=5), cycle=0)
        test = test.take(np.flatnonzero(~np.isin(test.y, absent)))
        acc, per_class = evaluate(result.net, result.net_cfg, test)
        pred = netcore.predict(result.net, result.net_cfg, test.X)[0].argmax(axis=1)
        want = self.ref_per_class(pred, test)
        assert same_bits(per_class, want) and np.isnan(want[absent]).all()
        assert ((want > 0) & (want < 1)).any()  # some recall is a fraction
        assert acc == float((pred == test.y).mean())


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
    @pytest.mark.parametrize("section, kwargs, message", [
        (alengine.Schedule, dict(epochs=0), "epochs must be >= 1"),
        (alengine.Schedule, dict(batch_size=-1), "batch_size must be >= 1"),
        (alengine.Schedule, dict(lam=np.nan), "lam must be nonnegative and finite"),
        (alengine.ALProtocol, dict(strategy="nope"), "unknown strategy 'nope'"),
        (alengine.ALProtocol, dict(initial_labeled=0), "initial_labeled must be >= 1"),
        (alengine.ALProtocol, dict(n_cycles=0), "n_cycles must be >= 1"),
        (alengine.ALProtocol, dict(epochs=0), "epochs must be >= 1"),
        (alengine.ALProtocol, dict(budget_per_cycle=10, subset_size=5),
         "subset_size must be >= budget_per_cycle"),
        (tdhead.HeadConfig, dict(reduce_dim=0), "reduce_dim must be >= 1"),
    ])
    def test_each_section_checks_its_own_values(self, section, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            section(**kwargs)

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
        np.testing.assert_array_equal(a.td, b.td)
        assert not np.array_equal(a.net.weights[0], c.net.weights[0])


class TestRunCycle:
    def test_labeled_count_invariant(self):
        train, test = small_data()
        cfg = small_cfg(n_cycles=1)
        reports = run_alone(train, test, cfg)
        assert len(reports) == 1
        assert reports[0].labeled_count == 12 + 8

    def test_lambda_zero_with_head_strategy_completes(self):
        # the untrained-head ablation: the head scores without ever learning
        train, test = small_data()
        cfg = small_cfg(strategy=StrategyKind.TIDAL_ENTROPY, lam=0.0, n_cycles=1)
        reports = run_alone(train, test, cfg)
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
            reports = run_alone(train, test, cfg)
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
        a = run_alone(train, test, cfg)
        b = run_alone(train, test, cfg)
        for ra, rb in zip(a, b):
            assert ra.test_accuracy == rb.test_accuracy
            assert ra.selected_ids == rb.selected_ids

    def test_cycle_start_depends_only_on_seed_and_cycle(self):
        # identical first-cycle training across different strategies
        train, test = small_data()
        accs = []
        for strategy in (StrategyKind.RANDOM, StrategyKind.CORESET, StrategyKind.TIDAL_PROB):
            cfg = small_cfg(strategy=strategy, seed=5, epochs=6, n_cycles=1)
            reports = run_alone(train, test, cfg)
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
                reports = run_alone(train, test, cfg)
                finals.append(reports[-1].test_accuracy)
            assert np.mean(finals) > 0.9

    def test_small_initial_pool_warns(self):
        train, test = small_data()
        cfg = small_cfg(initial_labeled=2, epochs=2, n_cycles=1)
        with pytest.warns(UserWarning, match="classes"):
            run_alone(train, test, cfg)

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
            reports = run_alone(train, test, cfg)
        assert len(reports) == 3
        assert reports[-1].labeled_count == len(train)


    @pytest.mark.parametrize("extra", [0, 1])
    def test_initial_labeling_of_the_whole_train_set_rejected(self, monkeypatch, extra):
        train, test = small_data()
        monkeypatch.setattr(alengine, "train_lockstep", lambda *a, **k: pytest.fail("trained"))
        cfg = small_cfg(initial_labeled=len(train) + extra)
        with pytest.raises(ValueError, match=f"must be below the training-set size {len(train)}"):
            alengine.run_experiments(train, test, cfg, [cfg.strategy])

    def test_minor_class_without_a_test_sample_rejected(self, monkeypatch):
        """A class absent from the test set has a nan recall, so its
        minor-class accuracy would be nan; the run is refused before
        training, naming the class."""
        train, test = small_data()
        monkeypatch.setattr(alengine, "train_lockstep", lambda *a, **k: pytest.fail("trained"))
        test = test.take(np.flatnonzero(test.y != 3))
        cfg = small_cfg()
        with pytest.raises(ValueError, match="minor class 3 has no test sample"):
            alengine.run_experiments(train, test, cfg, [cfg.strategy], [2, 3])


class TestSharedCycles:
    """``run_experiments`` trains each (cycle, labeled ids in order) once
    for all strategies of a seed; only scoring and selection are per run."""

    SCORED = (StrategyKind.SNAPSHOT_MARGIN, StrategyKind.CORESET, StrategyKind.TIDAL_ENTROPY)

    @staticmethod
    def count_calls(monkeypatch, name, fail=None):
        """Record the positional arguments of each call of ``alengine.<name>``;
        with ``fail``, an exception type, each call raises it instead."""
        calls = []
        orig = getattr(alengine, name)

        def wrapped(*a, **k):
            calls.append(a)
            if fail is not None:
                raise fail(f"{name} failed")
            return orig(*a, **k)

        monkeypatch.setattr(alengine, name, wrapped)
        return calls

    def test_three_strategies_train_one_model_per_cycle(self, monkeypatch):
        train, test = small_data()
        calls = self.count_calls(monkeypatch, "train_lockstep")
        outcomes = alengine.run_experiments(train, test, small_cfg(n_cycles=1, epochs=3),
                                            self.SCORED)
        assert len(calls) == 1 and len(calls[0][0]) == 1
        assert all(len(reports) == 1 for reports in outcomes)

    def test_permuted_labeled_ids_do_not_share_an_entry(self, monkeypatch):
        train, test = small_data()
        cfg = small_cfg(strategy=StrategyKind.SNAPSHOT_ENTROPY, epochs=3)
        labeled = [int(i) for i in train.ids[:12]]
        pool = train.ids[12:]
        calls = self.count_calls(monkeypatch, "train_lockstep")
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

    def test_a_score_only_cycle_runs_no_features_pass(self, monkeypatch):
        train, test = small_data()
        calls = []
        predict = netcore.predict

        def spy(*a, head=None, features=False):
            calls.append((head is not None, features))
            return predict(*a, head=head, features=features)

        monkeypatch.setattr(netcore, "predict", spy)
        scored = [StrategyKind.SNAPSHOT_MARGIN, StrategyKind.TIDAL_ENTROPY]
        alengine.run_experiments(train, test, small_cfg(n_cycles=2, epochs=3), scored)
        # Per model, one in cycle 1 and two in cycle 2: the test set, then the subset, with
        # the head once tidal_entropy scores it (in cycle 1 after snapshot_margin's pass).
        assert sorted(calls) == [(False, False)] * 5 + [(True, False)] * 2

    def test_a_coreset_only_cycle_never_runs_the_head(self, monkeypatch):
        train, test = small_data()
        calls, features = [], []
        head_forward, predict = tdhead.head_forward_batch, netcore.predict
        monkeypatch.setattr(tdhead, "head_forward_batch",
                            lambda *a: calls.append(a) or head_forward(*a))
        monkeypatch.setattr(netcore, "predict",
                            lambda *a, **k: features.append(k.get("features")) or predict(*a, **k))
        outcomes = alengine.run_experiments(train, test, small_cfg(n_cycles=2, epochs=3),
                                            [StrategyKind.CORESET])
        assert calls == [] and len(outcomes[0]) == 2
        # per cycle: the test set, then the labeled set's and the subset's features
        assert features == [None, True, True] * 2

    def test_grouped_reports_equal_separate_runs(self):
        train, test = small_data()
        cfg = small_cfg(n_cycles=2, epochs=4, dump_scores=True, analysis=True)
        grouped = alengine.run_experiments(train, test, cfg, list(StrategyKind),
                                           minor_classes=[1, 2])
        for strategy, reports in zip(StrategyKind, grouped):
            alone = run_alone(train, test, replace(cfg, strategy=strategy), minor_classes=[1, 2])
            assert reports == alone
            assert all(r.kl_rows for r in reports)
            if strategy not in (StrategyKind.RANDOM, StrategyKind.CORESET):
                assert all(r.score_dump[0] for r in reports)

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
            run_alone(train, test, replace(cfg, strategy=self.SCORED[2]))

    def test_failed_training_stores_nothing(self, monkeypatch):
        train, test = small_data()
        calls = self.count_calls(monkeypatch, "train_lockstep", fail=FloatingPointError)
        cfg = small_cfg(strategy=self.SCORED[0], n_cycles=2, epochs=3)
        memo = {}
        with pytest.raises(FloatingPointError):
            alengine.run_cycle([int(i) for i in train.ids[:12]], train.ids[12:], train, test,
                               cfg, 1, memo=memo)
        assert memo == {}
        # a diverged group stores nothing: each strategy then trains, and fails, on its own
        outcomes = alengine.run_experiments(train, test, cfg, self.SCORED[:2])
        assert all(isinstance(o, FloatingPointError) for o in outcomes)
        assert len(calls) == 1 + 1 + 2

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

    def test_batch_recording_counts_epochs(self, monkeypatch):
        train, test = small_data()
        cfg = small_cfg(epochs=5, n_cycles=1)
        folds, epoch = [], TDStore.epoch

        def counted(store, perm):
            with epoch(store, perm):
                yield
            folds.append(store.epochs)

        monkeypatch.setattr(TDStore, "epoch", contextmanager(counted))
        alengine.train_joint(train.by_ids(train.ids[:20]), cfg, cycle=0)
        # one store, folded once per epoch
        assert folds == [1, 2, 3, 4, 5]


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
    pre = [t @ w.T + b for t, w, b in zip(taps, head.weights[:-1], head.biases[:-1])]
    concat = np.maximum(np.concatenate(pre, axis=1), 0.0)
    return concat, oracle_softmax(concat @ head.weights[-1].T + head.biases[-1])


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
    dconcat = dU @ head.weights[-1]
    r = head.weights[0].shape[0]
    head_grads, tap_grads = [], []
    for j, (t, w) in enumerate(zip(taps, head.weights[:-1])):
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
    """train_joint as a per-batch loop of separate passes: forward, a fold
    of the batch's dataset rows into the means and per-row counts of
    ``ref_update_batch``, a re-read of the updated means as KL targets,
    gradient, update.  Returns (theta, (means, counts), test probs, head
    probs, test-set means)."""
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
    mean, count = np.zeros((n, n_classes)), np.zeros(n, int)
    if test is not None:
        test_mean, test_count = np.zeros((len(test), n_classes)), np.zeros(len(test), int)
    test_probs, head_probs = [], []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            Xb, yb = labeled.X[idx], labeled.y[idx]
            act, _, probs = oracle_forward(net, net_cfg, Xb)
            ref_update_batch(mean, count, idx, probs)
            grad = oracle_grad_joint(net, net_cfg, head, Xb, yb, mean[idx], cfg.lam, act, probs)
            netcore.apply_update(theta, grad, opt_state, cfg.opt, epoch)
        if test is not None:
            act, _, probs = oracle_forward(net, net_cfg, test.X)
            test_probs.append(probs)
            head_probs.append(oracle_head_forward(head, [act[l] for l in net_cfg.tap_layers])[1])
            ref_update_batch(test_mean, test_count, np.arange(len(test)), probs)
    return theta, (mean, count), test_probs, head_probs, test_mean if test is not None else None


def oracle_kl_rows(final_td, test_probs, head_probs):
    """The KL table from the oracle's own test-set means and snapshots."""
    return [(t, float(kl_rows(final_td, h).mean()), float(kl_rows(final_td, p).mean()))
            for t, (p, h) in enumerate(zip(test_probs, head_probs), start=1)]


class TestTrainJointOracle:
    """train_joint's fused steps against the per-batch loop of separate
    passes, byte for byte: parameters, TD means and epoch counts, and in
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
        theta, (mean, count), test_probs, head_probs, test_mean = oracle_train_joint(
            labeled, cfg, cycle=1, test=test if analysis else None)

        got = np.concatenate([p.ravel() for p in result.net.params() + result.head.params()])
        assert got.tobytes() == theta.tobytes()
        assert result.td.tobytes() == mean.tobytes()
        assert (count == 3).all()
        if analysis:
            assert result.kl_rows == oracle_kl_rows(test_mean, test_probs, head_probs)
        else:
            assert result.kl_rows is None


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
        assert result.td.shape == (30, n_classes)
        assert result.head.biases[-1].shape == (n_classes,)

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


# Lockstep and one-run training cases: SGD-momentum and Adam, relu and tanh, tap_layers [0], [1]
# and [0, 1], one hidden layer, n not a multiple of the batch size, analysis on and off.
TRAINING_CASES = pytest.mark.parametrize(
    "runs, kind, activation, hidden, taps, n, batch_size, lam, analysis",
    [
        (2, "sgd_momentum", "relu", [16, 16], [0, 1], 45, 16, 1.0, True),
        (3, "adam", "tanh", [16, 16], [1], 40, 16, 1.0, False),
        (3, "sgd_momentum", "tanh", [16, 16], [0], 33, 8, 0.5, True),
        (2, "adam", "relu", [12], [0], 45, 7, 1.0, True),
        (3, "adam", "relu", [16, 16], [0, 1], 48, 16, 0.0, False),
        (2, "sgd_momentum", "relu", [16, 16], [1], 37, 32, 1.0, False),
    ],
)


def training_case(runs, kind, activation, hidden, taps, n, batch_size, lam):
    """``runs`` labeled sets of ``n`` samples each, and the config that trains them."""
    train, _ = small_data()
    rng = np.random.default_rng(n)
    sets = [train.take(rng.choice(len(train), size=n, replace=False)) for _ in range(runs)]
    # four epochs with the learning rate stepping down at the third
    opt = OptimizerConfig(kind=kind, initial_lr=0.05 if kind == "sgd_momentum" else 0.01,
                          weight_decay=5e-3, decay_epoch=2, decay_factor=0.1)
    net = NetConfig(hidden_sizes=hidden, tap_layers=taps, activation=activation)
    return sets, small_cfg(net=net, opt=opt, epochs=4, batch_size=batch_size, lam=lam, seed=runs)


def flat(result):
    return np.concatenate([p.ravel() for p in result.net.params() + result.head.params()])


def assert_same_training(got, want):
    """Parameters array_equal, TD means bit for bit and KL rows equal."""
    assert np.array_equal(flat(got), flat(want))
    assert same_bits(got.td, want.td)
    assert got.kl_rows == want.kl_rows


class TestTrainJointReference:
    """One run's training, a lockstep of one, against ``train_2d``: the same
    training on 2-D arrays, with no run axis, bit for bit."""

    @TRAINING_CASES
    def test_equals_the_2d_loop(self, runs, kind, activation, hidden, taps, n, batch_size, lam,
                                analysis):
        sets, cfg = training_case(runs, kind, activation, hidden, taps, n, batch_size, lam)
        at = small_data()[1] if analysis else None
        for labeled in sets:
            assert_same_training(alengine.train_joint(labeled, cfg, cycle=2, test=at),
                                 train_2d(labeled, cfg, cycle=2, test=at))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_the_pilot_config_equals_the_2d_loop(self, seed):
        # kl-analysis's training: Adam on the whole long-tailed set, with its per-epoch KL table
        cfg = parse_config(CONFIGS / "pilot_longtail.yaml")
        train, test = build_dataset(cfg.dataset)
        run = build_run_config(cfg, cfg.pilot, seed)
        got = alengine.train_joint(train, run, cycle=0, test=test)
        assert_same_training(got, train_2d(train, run, cycle=0, test=test))
        assert len(got.kl_rows) == cfg.pilot.epochs


class TestLockstep:
    """Same-size labeled sets trained in lockstep, one kernel call per step
    with a leading run axis, against each set trained alone on 2-D arrays,
    byte for byte."""

    @TRAINING_CASES
    def test_equals_each_run_trained_alone(self, runs, kind, activation, hidden, taps, n,
                                           batch_size, lam, analysis):
        sets, cfg = training_case(runs, kind, activation, hidden, taps, n, batch_size, lam)
        at = small_data()[1] if analysis else None
        together = alengine.train_lockstep(sets, cfg, cycle=2, test=at)
        assert len(together) == runs
        for labeled, got in zip(sets, together):
            assert_same_training(got, train_2d(labeled, cfg, cycle=2, test=at))
            if analysis:
                assert len(got.kl_rows) == 4
        # the runs really differ: lockstep keeps their sets apart
        assert not np.array_equal(flat(together[0]), flat(together[1]))

    def test_the_runs_td_means_are_views_of_one_array(self):
        # Each result's means are its run of the lockstep's one means array, not a copy,
        # and in dataset order: the bits of its set's means trained alone.
        sets, cfg = training_case(3, "adam", "relu", [16, 16], [0, 1], 40, 16, 1.0)
        together = alengine.train_lockstep(sets, cfg, cycle=2)
        shared = together[0].td.base
        for labeled, got in zip(sets, together):
            assert np.shares_memory(got.td, shared)
            assert same_bits(got.td, train_2d(labeled, cfg, cycle=2).td)
        assert shared.shape == (3, 40, sets[0].n_classes)

    def test_sets_of_different_sizes_rejected(self):
        train, _ = small_data()
        with pytest.raises(ValueError, match="labeled sets of one size"):
            alengine.train_lockstep([train.take(np.arange(20)), train.take(np.arange(21))],
                                    small_cfg(), cycle=1)

    def test_a_cycle_trains_its_distinct_sets_in_one_lockstep_call(self, monkeypatch):
        train, test = small_data()
        solo = TestSharedCycles.count_calls(monkeypatch, "train_joint")
        lockstep = TestSharedCycles.count_calls(monkeypatch, "train_lockstep")
        outcomes = alengine.run_experiments(train, test, small_cfg(n_cycles=2, epochs=3),
                                            TestSharedCycles.SCORED)
        # cycle 1: one shared model, a lockstep of one; cycle 2: three sets, one lockstep call
        assert solo == []
        assert [(len(a[0]), a[2]) for a in lockstep] == [(1, 1), (3, 2)]
        assert len({tuple(s.ids) for s in lockstep[1][0]}) == 3
        assert all(len(reports) == 2 for reports in outcomes)

    def test_the_shipped_al_run_trains_each_cycle_in_one_lockstep_call(self, monkeypatch):
        # A group that fell back to training its runs alone in run_cycle would write the same
        # files, only slower; here every cycle trains once, before any run_cycle.
        cfg = parse_config(CONFIGS / "al_mixture.yaml")
        train, test = build_dataset(cfg.dataset)
        calls, in_cycle = [], []
        lockstep, run_cycle = alengine.train_lockstep, alengine.run_cycle

        def lockstep_spy(labeled_sets, run_cfg, cycle, *a, **k):
            calls.append((cycle, bool(in_cycle)))
            return lockstep(labeled_sets, run_cfg, cycle, *a, **k)

        def cycle_spy(*a, **k):
            in_cycle.append(True)
            try:
                return run_cycle(*a, **k)
            finally:
                in_cycle.pop()

        monkeypatch.setattr(alengine, "train_lockstep", lockstep_spy)
        monkeypatch.setattr(alengine, "run_cycle", cycle_spy)
        strategies = ["random", "snapshot_entropy", "coreset", "tidal_entropy", "tidal_margin"]
        outcomes = alengine.run_experiments(train, test, build_run_config(cfg, cfg.al, seed=0),
                                            strategies)
        assert all(len(reports) == cfg.al.n_cycles == 5 for reports in outcomes)
        assert calls == [(cycle, False) for cycle in range(1, 6)]

    def test_a_run_failed_in_cycle_1_leaves_one_lockstep_call_per_cycle(self, monkeypatch):
        train, test = small_data()
        calls = TestSharedCycles.count_calls(monkeypatch, "train_lockstep")
        scores = alengine.strategy_scores

        def fail_tidal(kind, *a):
            if kind is StrategyKind.TIDAL_ENTROPY:
                raise RuntimeError("scoring failed")
            return scores(kind, *a)

        monkeypatch.setattr(alengine, "strategy_scores", fail_tidal)
        outcomes = alengine.run_experiments(train, test, small_cfg(n_cycles=3, epochs=3),
                                            TestSharedCycles.SCORED)
        assert isinstance(outcomes[2], RuntimeError)
        assert [len(r) for r in outcomes[:2]] == [3, 3]
        # (labeled sets, cycle) per call: the two live runs' sets from cycle 2 on
        assert [(len(a[0]), a[2]) for a in calls] == [(1, 1), (2, 2), (2, 3)]

    def test_no_lockstep_call_once_every_pool_is_empty(self, monkeypatch):
        spec = DatasetSpec(generator="gaussian_mixture", n_classes=2, dim=6, per_class=20,
                           radius=4.0, noise=0.5, test_fraction=0.25, seed=1)
        train, test = build_dataset(spec)
        # 30 train samples: 10 initial + 8/cycle empties every pool in cycle 3 of 10
        cfg = small_cfg(net=NetConfig(hidden_sizes=[8], tap_layers=[0]), initial_labeled=10,
                        budget_per_cycle=8, subset_size=8, n_cycles=10, epochs=2)
        calls = TestSharedCycles.count_calls(monkeypatch, "train_lockstep")
        with pytest.warns(UserWarning, match="returning all"):
            outcomes = alengine.run_experiments(train, test, cfg, TestSharedCycles.SCORED)
        assert all(len(reports) == 3 for reports in outcomes)
        assert [a[2] for a in calls] == [1, 2, 3]

    def test_a_defect_in_a_group_propagates(self, monkeypatch):
        # Only a diverging training (FloatingPointError) sends a group's runs to train alone.
        train, test = small_data()

        def broken(*a, **k):
            raise IndexError("lockstep defect")

        monkeypatch.setattr(alengine, "train_lockstep", broken)
        with pytest.raises(IndexError, match="lockstep defect"):
            alengine.run_experiments(train, test, small_cfg(n_cycles=2, epochs=3),
                                     TestSharedCycles.SCORED)

    def test_a_failure_inside_a_group_stays_its_own(self, monkeypatch):
        train, test = small_data()
        cfg = small_cfg(n_cycles=3, epochs=3)
        scored = TestSharedCycles.SCORED
        expected = alengine.run_experiments(train, test, cfg, scored, minor_classes=[1])
        # a sample that only the second strategy selects in cycle 1
        picked = [set(reports[0].selected_ids) for reports in expected]
        bad = min(picked[1] - picked[0] - picked[2])
        step = netcore._joint_step

        def poisoned(joint, X, hot, targets_of, lam, sample_ids):
            if (sample_ids == bad).any():
                raise FloatingPointError(f"non-finite loss for sample id {bad}")
            return step(joint, X, hot, targets_of, lam, sample_ids)

        monkeypatch.setattr(netcore, "_joint_step", poisoned)
        raised = []
        lockstep = alengine.train_lockstep

        def spy(*a, **k):
            try:
                return lockstep(*a, **k)
            except Exception as e:
                raised.append(e)
                raise

        monkeypatch.setattr(alengine, "train_lockstep", spy)
        memos = []
        run_cycle = alengine.run_cycle

        def cycle_spy(*a, memo, **k):
            memos.append(memo)
            return run_cycle(*a, memo=memo, **k)

        monkeypatch.setattr(alengine, "run_cycle", cycle_spy)
        outcomes = alengine.run_experiments(train, test, cfg, scored, minor_classes=[1])
        # cycle 2's group of three raised, then the diverging run alone; cycle 3's group of two not
        assert len(raised) == 2
        (alone,) = alengine.run_experiments(train, test, replace(cfg, strategy=scored[1]),
                                            [scored[1]], minor_classes=[1])
        assert type(outcomes[1]) is type(alone) is FloatingPointError
        assert str(outcomes[1]) == str(alone) == f"non-finite loss for sample id {bad}"
        for i in (0, 2):
            assert outcomes[i] == expected[i]
            assert outcomes[i] == run_alone(
                train, test, replace(cfg, strategy=scored[i]), minor_classes=[1])
        assert memos and all(not m for m in memos)


class TestKlAnalysis:
    def test_rows_shape_and_nonnegativity(self):
        train, test = small_data()
        cfg = small_cfg(epochs=6)
        rows = alengine.train_joint(train, cfg, cycle=0, test=test).kl_rows
        assert [r[0] for r in rows] == list(range(1, 7))
        assert all(r[1] >= 0 and r[2] >= 0 for r in rows)

    def test_final_epoch_snapshot_kl_identity(self):
        # KL(final TD || snapshot at T) uses the same snapshots the TD was
        # built from; feeding the mean itself as prediction gives zero.
        train, test = small_data()
        cfg = small_cfg(epochs=4)
        result = alengine.train_joint(train, cfg, cycle=0, test=test)
        _, _, test_probs, head_probs, final_td = oracle_train_joint(train, cfg, 0, test)
        assert result.kl_rows == oracle_kl_rows(final_td, test_probs, head_probs)
        assert kl_rows(final_td, final_td).mean() == pytest.approx(0.0, abs=1e-12)

    def test_two_epoch_table_by_hand(self):
        # Two test samples, two classes; the final TD is the mean of the two snapshots.
        p1, p2 = np.array([[0.2, 0.8], [0.5, 0.5]]), np.array([[0.6, 0.4], [0.5, 0.5]])
        h1, h2 = np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([[0.4, 0.6], [0.5, 0.5]])
        rows = kl_analysis([(p1, h1), (p2, h2)])
        td = [0.4, 0.6]

        def kl(q, p):
            return sum(a * np.log(a / b) for a, b in zip(q, p))

        expected = [
            (1, (kl(td, [0.5, 0.5]) + kl([0.5, 0.5], [0.25, 0.75])) / 2, kl(td, [0.2, 0.8]) / 2),
            (2, 0.0, kl(td, [0.6, 0.4]) / 2),
        ]
        assert [r[0] for r in rows] == [1, 2]
        for got, want in zip(rows, expected):
            assert got[1:] == pytest.approx(want[1:], rel=1e-12, abs=1e-15)

    def test_constant_snapshots_give_zero(self):
        p = np.array([[0.1, 0.2, 0.7], [1 / 3, 1 / 3, 1 / 3], [0.0, 1.0, 0.0]])
        assert kl_analysis([(p, p)] * 4) == [(t, 0.0, 0.0) for t in range(1, 5)]

    def test_no_snapshots_is_a_value_error(self):
        with pytest.raises(ValueError, match="^snapshots must not be empty$"):
            kl_analysis([])

    def test_empty_test_set_is_rejected_before_training(self, monkeypatch):
        train, test = small_data()
        calls = []
        monkeypatch.setattr(netcore, "apply_update", lambda *a: calls.append(1))
        with pytest.raises(ValueError, match="test set is empty"):
            alengine.train_joint(train, small_cfg(epochs=2), cycle=0, test=test.take(np.arange(0)))
        assert calls == []

    @pytest.mark.parametrize("caller", ["train_joint", "run_experiments"])
    def test_every_forward_pass_is_a_predict_block(self, monkeypatch, caller):
        # training's test snapshots included: every set-level pass runs in aligned row blocks
        train, test = small_data()
        inside, passes = [], []
        predict, forward = netcore.predict, netcore.forward_batch
        head_forward = tdhead.head_forward_batch

        def predict_spy(*a, **k):
            inside.append(True)
            try:
                return predict(*a, **k)
            finally:
                inside.pop()

        monkeypatch.setattr(netcore, "predict", predict_spy)
        monkeypatch.setattr(netcore, "forward_batch",
                            lambda *a: passes.append(("net", bool(inside))) or forward(*a))
        monkeypatch.setattr(tdhead, "head_forward_batch",
                            lambda *a: passes.append(("head", bool(inside))) or head_forward(*a))
        cfg = small_cfg(strategy=StrategyKind.TIDAL_ENTROPY, n_cycles=2, epochs=3, analysis=True)
        if caller == "train_joint":
            result = alengine.train_joint(train, cfg, cycle=1, test=test)
            assert len(result.kl_rows) == 3
            assert passes == [("net", True), ("head", True)] * 3
        else:
            (reports,) = alengine.run_experiments(train, test, cfg, [cfg.strategy])
            assert len(reports) == 2 and all(len(r.kl_rows) == 3 for r in reports)
            # each cycle's three test snapshots run the head, besides evaluation and scoring
            assert passes.count(("head", True)) >= 2 * 3
            assert all(within for _, within in passes)


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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_kl_analysis_retrains_the_pilot_model_bit_for_bit(self, seed):
        """``kl-analysis``'s training, which also snapshots the test set after
        every epoch, ends at the net, head and TD means that ``pilot``'s
        training ends at: the snapshots only read the model, so one training
        per seed could serve both commands."""
        cfg = parse_config(CONFIGS / "pilot_longtail.yaml")
        train, test = build_dataset(cfg.dataset)
        minor = cfg.dataset.imbalance.minor_classes_for(train.n_classes)
        run = build_run_config(cfg, cfg.pilot, seed)
        pilot = alengine.run_pilot(train, run, minor).train_result
        traced = alengine.train_joint(train, run, 0, test=test)
        assert np.array_equal(flat(traced), flat(pilot))
        assert np.array_equal(traced.td, pilot.td)
        assert pilot.kl_rows is None
        assert len(traced.kl_rows) == cfg.pilot.epochs

    @pytest.mark.parametrize("minor", [[], [0, 1, 2, 3]])
    def test_one_sided_training_set_rejected_before_training(self, monkeypatch, minor):
        """Separation needs both minor and major samples; a training set
        with one side empty is refused before any training."""
        train, _ = small_data()
        monkeypatch.setattr(alengine, "train_joint", lambda *a, **k: pytest.fail("trained"))
        with pytest.raises(ValueError, match="^pilot needs an imbalanced dataset"):
            alengine.run_pilot(train, small_cfg(epochs=3), minor_classes=minor)

    def test_snapshot_labels_are_final_argmax(self):
        spec = DatasetSpec(generator="gaussian_mixture", n_classes=4, dim=6, per_class=30,
                           imbalance=ImbalanceSpec(ratio=5, profile="step", minor_classes=[2, 3]),
                           seed=5)
        train, _ = build_dataset(spec)
        pilot = alengine.run_pilot(train, small_cfg(epochs=3), minor_classes=[2, 3])
        tr = pilot.train_result
        probs = netcore.forward_batch(tr.net, tr.net_cfg, train.X).probs
        np.testing.assert_array_equal(pilot.snapshot_labels, probs.argmax(axis=1))
