#!/usr/bin/env python3
"""Does the head actually learn to predict the mean trajectory?

During a joint training run on the long-tailed mixture we snapshot, at
every epoch, the classifier's test-set probabilities and the head's
test-set predictions.  After training we compare both against the final
per-sample mean trajectory via KL divergence.

The snapshot drifts away from the mean as the model grows confident;
the head's prediction converges toward it.  The final-epoch gap is the
headline number: the head is a far better stand-in for the trajectory
than the last snapshot is.
"""

from dynal.alengine import ALConfig, kl_analysis, train_joint
from dynal.datasets import DatasetSpec, ImbalanceSpec, build_dataset
from dynal.estimators import StrategyKind
from dynal.netcore import NetConfig, OptimizerConfig

spec = DatasetSpec(
    generator="gaussian_mixture", n_classes=10, dim=16, per_class=120,
    radius=3.0, noise=1.2,
    imbalance=ImbalanceSpec(ratio=10, profile="step", minor_classes=[5, 6, 7, 8, 9]),
    test_fraction=1 / 6, seed=7,
)
train, test = build_dataset(spec)

cfg = ALConfig(
    net=NetConfig(input_dim=16, hidden_sizes=[32, 32], n_classes=10, tap_layers=[0, 1]),
    opt=OptimizerConfig(kind="adam", initial_lr=1e-2, weight_decay=0.0,
                        decay_epoch=10**6, decay_factor=1.0),
    strategy=StrategyKind.RANDOM, initial_labeled=20, budget_per_cycle=20,
    subset_size=200, n_cycles=1, epochs=30, batch_size=32, lam=1.0, seed=0,
)

result = train_joint(train, cfg, cycle=0, test=test)
rows = kl_analysis(result)

print("epoch | KL(final mean || head prediction) | KL(final mean || snapshot)")
for epoch, kl_module, kl_snapshot in rows:
    if epoch % 3 == 0 or epoch == 1:
        bar = "#" * int(40 * kl_module / max(kl_snapshot, 1e-9))
        print(f"{epoch:5d} | {kl_module:22.4f} | {kl_snapshot:14.4f}  {bar}")

_, final_module, final_snapshot = rows[-1]
print(f"\nfinal epoch: head {final_module:.4f} vs snapshot {final_snapshot:.4f} "
      f"({final_snapshot / final_module:.1f}x closer to the true mean trajectory)")
