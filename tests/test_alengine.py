import numpy as np
import pytest

from dynal import alengine, datasets, netcore
from dynal.alengine import ALConfig, evaluate, kl_analysis, separation_auroc
from dynal.datasets import DatasetSpec, ImbalanceSpec, build_dataset
from dynal.estimators import StrategyKind
from dynal.netcore import NetConfig, OptimizerConfig
from dynal.numutil import kl_rows


def small_data(seed=3, n_classes=4, per_class=60):
    spec = DatasetSpec(generator="gaussian_mixture", n_classes=n_classes, dim=6,
                       per_class=per_class, radius=3.0, noise=1.0,
                       test_fraction=0.25, seed=seed)
    return build_dataset(spec)


def small_cfg(strategy=StrategyKind.RANDOM, seed=0, **kw):
    base = dict(
        net=NetConfig(input_dim=6, hidden_sizes=[16, 16], n_classes=4, tap_layers=[0, 1], seed=0),
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
        cfg = NetConfig(input_dim=2, hidden_sizes=[3], n_classes=2, seed=0)
        net = netcore.init_net(cfg)
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


class TestRunCycle:
    def test_labeled_count_invariant(self):
        train, test = small_data()
        cfg = small_cfg(n_cycles=1)
        reports = alengine.run_experiment(train, test, cfg)
        assert len(reports) == 1
        assert reports[0].labeled_count == 12 + 8

    def test_lambda_zero_with_head_strategy_flags_ablation(self):
        train, test = small_data()
        cfg = small_cfg(strategy=StrategyKind.TIDAL_ENTROPY, lam=0.0, n_cycles=1)
        reports = alengine.run_experiment(train, test, cfg)
        assert reports[0].notes == "untrained-head-ablation"

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
                    net=NetConfig(input_dim=8, hidden_sizes=[16, 16], n_classes=4,
                                  tap_layers=[0, 1], seed=0),
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
            net=NetConfig(input_dim=6, hidden_sizes=[8], n_classes=2, tap_layers=[0], seed=0),
            strategy=StrategyKind.SNAPSHOT_ENTROPY,
            initial_labeled=10, budget_per_cycle=8, subset_size=8, n_cycles=10, epochs=2,
        )
        with pytest.warns(UserWarning, match="returning all"):
            reports = alengine.run_experiment(train, test, cfg)
        assert len(reports) == 3
        assert reports[-1].labeled_count == len(train)


class TestTrainingModes:
    def test_epoch_end_recording_runs(self):
        train, test = small_data()
        cfg = small_cfg(record_probs="epoch_end", epochs=4, n_cycles=1)
        result = alengine.train_joint(train.by_ids(train.ids[:20]), cfg, cycle=0)
        assert all(rec.t == 4 for rec in result.store.records.values())

    def test_one_update_of_net_and_head_per_batch(self, monkeypatch):
        train, _ = small_data()
        cfg = small_cfg(epochs=2, n_cycles=1)
        sizes = []
        update = netcore.apply_update
        monkeypatch.setattr(netcore, "apply_update",
                            lambda params, *a: sizes.append(len(params)) or update(params, *a))
        result = alengine.train_joint(train.take(np.arange(40)), cfg, cycle=0)
        assert len(sizes) == 2 * 3  # epochs x ceil(40 / batch_size 16)
        assert set(sizes) == {len(result.net.params()) + len(result.head.params())}

    def test_batch_recording_counts_epochs(self):
        train, test = small_data()
        cfg = small_cfg(epochs=5, n_cycles=1)
        result = alengine.train_joint(train.by_ids(train.ids[:20]), cfg, cycle=0)
        assert all(rec.t == 5 for rec in result.store.records.values())


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
        final_td = trace.test_store.values(trace.test_ids)
        assert kl_rows(final_td, final_td).mean() == pytest.approx(0.0, abs=1e-12)


class TestPilot:
    def test_pilot_outputs_complete(self):
        spec = DatasetSpec(generator="gaussian_mixture", n_classes=4, dim=8, per_class=40,
                           radius=3.0, noise=1.0,
                           imbalance=ImbalanceSpec(ratio=10, profile="step", minor_classes=[2, 3]),
                           test_fraction=0.25, seed=11)
        train, test = build_dataset(spec)
        cfg = small_cfg(
            net=NetConfig(input_dim=8, hidden_sizes=[16, 16], n_classes=4, tap_layers=[0, 1], seed=0),
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
