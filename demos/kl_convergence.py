#!/usr/bin/env python3
"""Does the head actually learn to predict the mean trajectory?

Runs ``configs/pilot_longtail.yaml`` as ``dynal kl-analysis --seeds 0``
does.  During a joint training run on the long-tailed mixture we
snapshot, at every epoch, the classifier's test-set probabilities and
the head's test-set predictions.  After training we compare both against
the final per-sample mean trajectory via KL divergence.

The snapshot drifts away from the mean as the model grows confident;
the head's prediction converges toward it.  The final-epoch gap is the
headline number: the head is a far better stand-in for the trajectory
than the last snapshot is.
"""

from pathlib import Path

from dynal.alengine import train_joint
from dynal.cli import build_run_config, parse_config
from dynal.datasets import build_dataset

cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "pilot_longtail.yaml")
train, test = build_dataset(cfg.dataset)

rows = train_joint(train, build_run_config(cfg, cfg.pilot, seed=0), cycle=0,
                   test=test).kl_rows

print("epoch | KL(final mean || head prediction) | KL(final mean || snapshot)")
for epoch, kl_module, kl_snapshot in rows:
    if epoch % 3 == 0 or epoch == 1:
        bar = "#" * int(40 * kl_module / max(kl_snapshot, 1e-9))
        print(f"{epoch:5d} | {kl_module:22.4f} | {kl_snapshot:14.4f}  {bar}")

_, final_module, final_snapshot = rows[-1]
print(f"\nfinal epoch: head {final_module:.4f} vs snapshot {final_snapshot:.4f} "
      f"({final_snapshot / final_module:.1f}x closer to the true mean trajectory)")
