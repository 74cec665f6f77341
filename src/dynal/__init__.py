"""Desk-scale active-learning workbench with dynamics-aware uncertainty.

Trains a small feedforward classifier jointly with a head that predicts
each sample's mean probability trajectory, scores unlabeled pools with
snapshot or dynamics-aware entropy/margin estimators, and numerically
checks the local-elasticity theory behind the approach.
"""

from .acquisition import kcenter_greedy, sample_subset, select_top_k
from .alengine import (
    ALConfig,
    CycleReport,
    evaluate,
    kl_analysis,
    run_cycle,
    run_experiment,
    run_experiments,
    run_pilot,
    separation_auroc,
    train_joint,
)
from .datasets import (
    Dataset,
    DatasetSpec,
    ImbalanceSpec,
    apply_imbalance,
    build_dataset,
    gen_concentric_rings,
    gen_gaussian_mixture,
    load_csv,
    save_csv,
    split,
)
from .estimators import StrategyKind, entropy, margin, strategy_scores, uncertainty
from .netcore import (
    NetConfig,
    NetState,
    OptimizerConfig,
    apply_update,
    flatten,
    forward_batch,
    grad_joint,
    init_net,
    init_opt_state,
    lr_at,
)
from .numutil import kl_rows
from .tdhead import HeadState, head_forward_batch, init_head
from .tdtrack import TDStore
from .theorysim import (
    ElasticityParams,
    convergence_gap,
    integrate_ode,
    s_vector,
    simulate_discrete_ensemble,
    theorem2_entropy,
    theorem2_margin,
)

__version__ = "0.1.0"
