#!/usr/bin/env python3
"""Can training dynamics tell hard samples from easy ones?

We build a long-tailed 10-class Gaussian mixture (five classes keep 100
training samples, five keep 10), train a small classifier jointly with
the dynamics-prediction head for 30 epochs, and then score every
training sample four ways: entropy/margin of the final snapshot, and
entropy/margin of the per-sample mean probability across epochs.

Minority-class samples are the "uncertain" group.  A good uncertainty
score ranks them above majority samples; we summarize each score's
ranking quality as an AUROC.  The snapshot looks confident about nearly
everything once training has memorized the data, so its scores separate
poorly; the averaged trajectory remembers who was hard to learn.
"""

import numpy as np

from dynal.alengine import ALConfig, run_pilot
from dynal.datasets import DatasetSpec, ImbalanceSpec, build_dataset
from dynal.estimators import StrategyKind
from dynal.netcore import NetConfig, OptimizerConfig

MINOR = [5, 6, 7, 8, 9]

spec = DatasetSpec(
    generator="gaussian_mixture", n_classes=10, dim=16, per_class=120,
    radius=3.0, noise=1.2,
    imbalance=ImbalanceSpec(ratio=10, profile="step", minor_classes=MINOR),
    test_fraction=1 / 6, seed=7,
)
train, _ = build_dataset(spec)
print(f"training set: {len(train)} samples, per-class counts {train.class_counts().tolist()}")

aurocs = {}
for seed in range(3):
    cfg = ALConfig(
        net=NetConfig(input_dim=16, hidden_sizes=[32, 32], n_classes=10,
                      tap_layers=[0, 1]),
        opt=OptimizerConfig(kind="adam", initial_lr=1e-2, weight_decay=0.0,
                            decay_epoch=10**6, decay_factor=1.0),
        strategy=StrategyKind.RANDOM, initial_labeled=20, budget_per_cycle=20,
        subset_size=200, n_cycles=1, epochs=30, batch_size=32, lam=1.0, seed=seed,
    )
    pilot = run_pilot(train, cfg, minor_classes=MINOR)
    for name, val in pilot.auroc.items():
        aurocs.setdefault(name, []).append(val)
    print(f"seed {seed} done")

print("\nminor-vs-major separation AUROC (mean over seeds, higher is better):")
for name in ("snapshot_entropy", "td_entropy", "pred_td_entropy",
             "snapshot_margin", "td_margin", "pred_td_margin"):
    print(f"  {name:18s} {np.mean(aurocs[name]):.3f}")

print("\nThe td_* rows (actual mean trajectory) and pred_td_* rows (head's")
print("prediction of it) should clearly beat their snapshot counterparts.")
