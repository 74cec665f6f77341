#!/usr/bin/env python3
"""A small acquisition-strategy bake-off.

Five cycles of pool-based active learning on an 8-class mixture: start
with 20 random labels, add 20 per cycle, each strategy scoring a random
200-sample slice of the pool.  All strategies share per-cycle seeds, so
cycle-1 models are identical and differences come from selection alone.
``run_experiments`` runs the strategies of each seed together and trains
each such shared model once.

Strategies compared: random, snapshot entropy, k-center greedy on the
last hidden layer, and dynamics-aware entropy/margin read from the
head's predicted mean trajectory.
"""

import numpy as np

from dynal.alengine import ALConfig, run_experiments
from dynal.datasets import DatasetSpec, build_dataset, nearest_mean_predict
from dynal.estimators import StrategyKind
from dynal.netcore import NetConfig, OptimizerConfig

spec = DatasetSpec(
    generator="gaussian_mixture", n_classes=8, dim=12, per_class=300,
    radius=3.0, noise=1.1, test_fraction=1 / 3, seed=21,
)
train, test = build_dataset(spec)
oracle = float((nearest_mean_predict(test.X, train.class_means) == test.y).mean())
print(f"pool {len(train)} / test {len(test)}; nearest-true-mean oracle accuracy {oracle:.3f}\n")

STRATEGIES = [
    StrategyKind.RANDOM,
    StrategyKind.SNAPSHOT_ENTROPY,
    StrategyKind.CORESET,
    StrategyKind.TIDAL_ENTROPY,
    StrategyKind.TIDAL_MARGIN,
]
SEEDS = range(4)

accs = {strategy: [] for strategy in STRATEGIES}
for seed in SEEDS:
    cfgs = [
        ALConfig(
            net=NetConfig(input_dim=12, hidden_sizes=[32, 32], n_classes=8,
                          tap_layers=[0, 1]),
            opt=OptimizerConfig(kind="sgd_momentum", initial_lr=0.03, momentum=0.9,
                                weight_decay=5e-4, decay_epoch=48, decay_factor=0.1),
            strategy=strategy, initial_labeled=20, budget_per_cycle=20, n_cycles=5,
            subset_size=200, epochs=60, batch_size=32, lam=1.0, seed=seed,
        )
        for strategy in STRATEGIES
    ]
    for strategy, reports in zip(STRATEGIES, run_experiments(train, test, cfgs)):
        if isinstance(reports, Exception):
            raise reports
        accs[strategy].append([r.test_accuracy for r in reports])

for strategy in STRATEGIES:
    curve = np.array(accs[strategy]).mean(axis=0)
    print(f"{strategy.value:18s} " + " ".join(f"{a:.3f}" for a in curve))

print("\ncolumns are cycles 1..5 (models trained on 20, 40, 60, 80, 100 labels);")
print(f"every strategy should stay below the oracle bound of {oracle:.3f}.")
