#!/usr/bin/env python3
"""A small acquisition-strategy bake-off.

Runs ``configs/al_mixture.yaml`` as ``dynal al-run --seeds 0,1,2,3``
does: five cycles of pool-based active learning on an 8-class mixture,
starting with 20 random labels and adding 20 per cycle, each strategy
scoring a random 200-sample slice of the pool.  All strategies share
per-cycle seeds, so cycle-1 models are identical and differences come
from selection alone.  ``run_experiments`` runs the strategies of each
seed together and trains each such shared model once.

Strategies compared: random, snapshot entropy, k-center greedy on the
last hidden layer, and dynamics-aware entropy/margin read from the
head's predicted mean trajectory.
"""

from pathlib import Path

import numpy as np

from dynal.alengine import run_experiments
from dynal.cli import build_run_config, parse_config
from dynal.datasets import build_dataset, nearest_mean_predict

cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "al_mixture.yaml")
train, test = build_dataset(cfg.dataset)
oracle = float((nearest_mean_predict(test.X, train.class_means) == test.y).mean())
print(f"pool {len(train)} / test {len(test)}; nearest-true-mean oracle accuracy {oracle:.3f}\n")

STRATEGIES = ["random", "snapshot_entropy", "coreset", "tidal_entropy", "tidal_margin"]
SEEDS = range(4)

accs = {strategy: [] for strategy in STRATEGIES}
for seed in SEEDS:
    outcomes = run_experiments(train, test, build_run_config(cfg, cfg.al, seed), STRATEGIES)
    for strategy, reports in zip(STRATEGIES, outcomes):
        if isinstance(reports, Exception):
            raise reports
        accs[strategy].append([r.test_accuracy for r in reports])

for strategy in STRATEGIES:
    curve = np.array(accs[strategy]).mean(axis=0)
    print(f"{strategy:18s} " + " ".join(f"{a:.3f}" for a in curve))

print("\ncolumns are cycles 1..5 (models trained on 20, 40, 60, 80, 100 labels);")
print(f"every strategy should stay below the oracle bound of {oracle:.3f}.")
