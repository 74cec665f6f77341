"""Workload definitions: the configs each workload feeds the program, made
from the workload seed, and the work one round of operations does.

Everything here is plain data and standard library, so the orchestrator
(run.py) can write the configs without importing numpy.  The base values
mirror the shipped configs in ``configs/``; the workload seed only picks
the dataset seed (and, for ``theory``, the simulation seeds), so every
seed gives the same amount of work.
"""

from __future__ import annotations

import copy
import math

WORKLOADS = ("al_shipped", "al_large_pool", "pilot_kl", "theory")

# configs/al_mixture.yaml, with score dumps on so selections can be checked.
AL_MIXTURE = {
    "dataset": {
        "generator": "gaussian_mixture",
        "n_classes": 8,
        "dim": 12,
        "per_class": 300,
        "radius": 3.0,
        "noise": 1.1,
        "test_fraction": 1.0 / 3.0,
        "seed": 21,
    },
    "net": {"hidden_sizes": [32, 32], "activation": "relu", "tap_layers": [0, 1]},
    "head": {"reduce_dim": 16},
    "optimizer": {
        "kind": "sgd_momentum",
        "initial_lr": 0.03,
        "momentum": 0.9,
        "weight_decay": 0.0005,
        "decay_epoch": 48,
        "decay_factor": 0.1,
    },
    "al": {
        "strategy": "random",
        "initial_labeled": 20,
        "budget_per_cycle": 20,
        "n_cycles": 5,
        "subset_size": 200,
        "epochs": 60,
        "batch_size": 32,
        "lam": 1.0,
        "dump_scores": True,
    },
}

# configs/pilot_longtail.yaml
PILOT_LONGTAIL = {
    "dataset": {
        "generator": "gaussian_mixture",
        "n_classes": 10,
        "dim": 16,
        "per_class": 120,
        "radius": 3.0,
        "noise": 1.2,
        "test_fraction": 1.0 / 6.0,
        "seed": 7,
        "imbalance": {"ratio": 10, "profile": "step", "minor_classes": [5, 6, 7, 8, 9]},
    },
    "net": {"hidden_sizes": [32, 32], "activation": "relu", "tap_layers": [0, 1]},
    "head": {"reduce_dim": 16},
    "optimizer": {
        "kind": "adam",
        "initial_lr": 0.01,
        "weight_decay": 0.0,
        "decay_epoch": 1000000,
        "decay_factor": 1.0,
    },
    "pilot": {"epochs": 30, "batch_size": 32, "lam": 1.0},
}

# configs/theory.yaml
THEORY = {
    "theory": {
        "n_1e": 10,
        "n_1h": 10,
        "n_2": 10,
        "alpha_e": 1.0,
        "alpha_h": 0.5,
        "beta": 0.1,
        "step_size": 0.001,
        "noise": 0.0,
        "x0": [1.0, 1.0, 1.0],
        "iterations": 5000,
        "n_runs": 200,
        "dt": 0.001,
        "t_end": 5.0,
        "sy_values": [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95],
        "classes": [2, 3, 10, 100],
    }
}

AL_SHIPPED_STRATEGIES = ["random", "snapshot_entropy", "coreset", "tidal_entropy", "tidal_margin"]
AL_SHIPPED_SEEDS = [0, 1, 2]

# The 8-class mixture scaled so that the training pool holds 100k samples.
LARGE_PER_CLASS = 18750
LARGE_SCORE_STRATEGIES = ["tidal_entropy", "tidal_margin", "snapshot_margin", "tidal_prob"]
LARGE_SEEDS = [0]

PILOT_SEEDS = [0, 1, 2, 3, 4]
THEORY_SDE_SEEDS_PER_RUN = 3
# Replicas of the ensemble that demos/elasticity_theory.py compares with the ODE.
ENSEMBLE_RUNS = 200

# Operations that entropy/margin-score a pool, as opposed to random and coreset.
SCORE_STRATEGIES = {
    "snapshot_entropy", "snapshot_margin", "tidal_entropy", "tidal_margin",
    "tidal_margin_naive", "tidal_prob", "tidal_prob_naive",
}


def configs(workload: str, seed: int) -> dict[str, dict]:
    """Config name -> config mapping fed to the program for one workload seed."""
    if workload == "al_shipped":
        cfg = copy.deepcopy(AL_MIXTURE)
        cfg["dataset"]["seed"] = seed
        return {"al": cfg}
    if workload == "al_large_pool":
        score = copy.deepcopy(AL_MIXTURE)
        score["dataset"]["seed"] = seed
        score["dataset"]["per_class"] = LARGE_PER_CLASS
        # Short training, one cycle, and the whole pool scored.
        score["al"].update(
            initial_labeled=20, budget_per_cycle=20, n_cycles=1,
            subset_size=10**6, epochs=10, dump_scores=False,
        )
        # k-center greedy: 500 labeled points against a 4000-sample subset.
        coreset = copy.deepcopy(score)
        coreset["al"].update(initial_labeled=500, n_cycles=2, subset_size=4000, epochs=2)
        return {"score": score, "coreset": coreset}
    if workload == "pilot_kl":
        cfg = copy.deepcopy(PILOT_LONGTAIL)
        cfg["dataset"]["seed"] = seed
        return {"pilot": cfg}
    if workload == "theory":
        return {"theory": copy.deepcopy(THEORY)}
    raise ValueError(f"unknown workload {workload!r}")


def theory_sde_seeds(seed: int) -> list[int]:
    return [THEORY_SDE_SEEDS_PER_RUN * seed + j for j in range(THEORY_SDE_SEEDS_PER_RUN)]


def _al_work(al: dict, strategies: list[str], n_seeds: int, pool_size: int) -> dict[str, int]:
    """Steps, scored samples and epochs of one al-run over the given strategies."""
    steps = scored = epochs = 0
    for strategy in strategies:
        pool = pool_size - al["initial_labeled"]
        for cycle in range(1, al["n_cycles"] + 1):
            labeled = al["initial_labeled"] + (cycle - 1) * al["budget_per_cycle"]
            steps += al["epochs"] * math.ceil(labeled / al["batch_size"]) * n_seeds
            epochs += al["epochs"] * n_seeds
            if strategy in SCORE_STRATEGIES or strategy == "coreset":
                scored += min(al["subset_size"], pool) * n_seeds
            pool -= al["budget_per_cycle"]
    return {"train_steps": steps, "scored": scored, "sim_steps": epochs}


def round_work(workload: str, cfgs: dict[str, dict], n_train: int) -> dict[str, int]:
    """Work of one round, derived from the inputs alone.

    ``train_steps`` counts joint minibatch steps (on ``theory``: simulated
    training draws, one per replica and iteration); ``scored`` counts
    samples given an uncertainty score or ranked by k-center (on
    ``theory``: s-vectors evaluated in closed form); ``sim_steps`` counts
    time steps of a dynamics (on ``theory``: simulation iterations and ODE
    steps; elsewhere: training epochs, each of which advances every
    tracked sample's trajectory by one point).
    """
    if workload == "al_shipped":
        return _al_work(cfgs["al"]["al"], AL_SHIPPED_STRATEGIES, len(AL_SHIPPED_SEEDS), n_train)
    if workload == "al_large_pool":
        a = _al_work(cfgs["score"]["al"], LARGE_SCORE_STRATEGIES, len(LARGE_SEEDS), n_train)
        b = _al_work(cfgs["coreset"]["al"], ["coreset"], len(LARGE_SEEDS), n_train)
        return {k: a[k] + b[k] for k in a}
    if workload == "pilot_kl":
        p = cfgs["pilot"]["pilot"]
        trainings = 2 * len(PILOT_SEEDS)  # one pilot and one kl-analysis run per seed
        return {
            "train_steps": trainings * p["epochs"] * math.ceil(n_train / p["batch_size"]),
            "scored": len(PILOT_SEEDS) * 6 * n_train,  # six estimators per pilot seed
            "sim_steps": trainings * p["epochs"],
        }
    if workload == "theory":
        th = cfgs["theory"]["theory"]
        it = th["iterations"]
        ode = int(round(th["t_end"] / th["dt"]))
        return {
            "train_steps": THEORY_SDE_SEEDS_PER_RUN * it + ENSEMBLE_RUNS * it,
            "scored": len(th["sy_values"]) * len(th["classes"]),
            "sim_steps": THEORY_SDE_SEEDS_PER_RUN * it + ode + it,
        }
    raise ValueError(f"unknown workload {workload!r}")
