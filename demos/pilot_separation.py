#!/usr/bin/env python3
"""Can training dynamics tell hard samples from easy ones?

Runs ``configs/pilot_longtail.yaml`` as ``dynal pilot --seeds 0,1,2``
does.  We build a long-tailed 10-class Gaussian mixture (five classes
keep 100 training samples, five keep 10), train a small classifier
jointly with the dynamics-prediction head for 30 epochs, and then score
every training sample four ways: entropy/margin of the final snapshot,
and entropy/margin of the per-sample mean probability across epochs.

Minority-class samples are the "uncertain" group.  A good uncertainty
score ranks them above majority samples; we summarize each score's
ranking quality as an AUROC.  The snapshot looks confident about nearly
everything once training has memorized the data, so its scores separate
poorly; the averaged trajectory remembers who was hard to learn.
"""

from pathlib import Path

import numpy as np

from dynal.alengine import run_pilot
from dynal.cli import build_run_config, parse_config
from dynal.datasets import build_dataset

cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "pilot_longtail.yaml")
train, _ = build_dataset(cfg.dataset)
minor = cfg.dataset.imbalance.minor_classes_for(train.n_classes)
print(f"training set: {len(train)} samples, per-class counts {train.class_counts().tolist()}")

aurocs = {}
for seed in range(3):
    pilot = run_pilot(train, build_run_config(cfg, cfg.pilot, seed), minor)
    for name, val in pilot.auroc.items():
        aurocs.setdefault(name, []).append(val)
    print(f"seed {seed} done")

print("\nminor-vs-major separation AUROC (mean over seeds, higher is better):")
for name in ("snapshot_entropy", "td_entropy", "pred_td_entropy",
             "snapshot_margin", "td_margin", "pred_td_margin"):
    print(f"  {name:18s} {np.mean(aurocs[name]):.3f}")

print("\nThe td_* rows (actual mean trajectory) and pred_td_* rows (head's")
print("prediction of it) should clearly beat their snapshot counterparts.")
