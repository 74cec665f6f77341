"""Active-learning protocol: seeded pools, per-cycle from-scratch joint
training with dynamics tracking, scoring, selection, and evaluation.

Every cycle retrains the classifier and head from a cycle-specific seed
(derived only from the experiment seed and cycle index, so strategies
are compared on identical initializations), records each labeled
sample's probability trajectory, scores a random subset of the pool
with the configured strategy, and moves the top picks into the labeled
set.  Scoring never sees pool labels; dynamics-aware strategies read
the head's predicted mean probabilities.
"""

from __future__ import annotations

import csv
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import rankdata

from . import netcore, tdhead
from .acquisition import kcenter_greedy, random_select, sample_subset, select_top_k
from .datasets import Dataset
from .estimators import (
    HEAD_STRATEGIES,
    AcquisitionScore,
    StrategyKind,
    entropy,
    margin_with_label,
    strategy_scores,
)
from .netcore import NetConfig, NetState, OptimizerConfig
from .numutil import kl_rows
from .tdtrack import TDStore

# Stream labels for deriving independent RNGs from (seed, cycle).
_STREAM_INIT_POOL = 101
_STREAM_NET = 1
_STREAM_HEAD = 2
_STREAM_SHUFFLE = 3
_STREAM_SUBSET = 4

RECORD_MODES = ("batch", "epoch_end")


@dataclass
class ALConfig:
    net: NetConfig
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    strategy: StrategyKind = StrategyKind.RANDOM
    initial_labeled: int = 20
    budget_per_cycle: int = 20
    n_cycles: int = 5
    subset_size: int = 200
    epochs: int = 60
    batch_size: int = 32
    lam: float = 1.0
    detach: bool = False
    head_reduce_dim: int = 16
    record_probs: str = "batch"
    analysis: bool = False
    dump_scores: bool = False
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.strategy, str):
            self.strategy = StrategyKind.from_string(self.strategy)
        if self.initial_labeled < 1 or self.budget_per_cycle < 1:
            raise ValueError("initial_labeled and budget_per_cycle must be >= 1")
        if self.subset_size < self.budget_per_cycle:
            raise ValueError("subset_size must be >= budget_per_cycle")
        if self.n_cycles < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("n_cycles, epochs and batch_size must be >= 1")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.record_probs not in RECORD_MODES:
            raise ValueError(f"record_probs must be one of {RECORD_MODES}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class TrainingTrace:
    """Per-epoch test-set snapshots kept only in analysis mode."""

    test_ids: np.ndarray
    test_probs: list[np.ndarray] = field(default_factory=list)
    head_probs: list[np.ndarray] = field(default_factory=list)
    test_store: TDStore | None = None


@dataclass
class TrainResult:
    net: NetState
    net_cfg: NetConfig
    head: tdhead.HeadState
    head_cfg: tdhead.HeadConfig
    store: TDStore
    loss_target: float
    loss_module: float
    trace: TrainingTrace | None = None


@dataclass
class CycleReport:
    cycle: int
    labeled_count: int
    test_accuracy: float
    per_class_accuracy: np.ndarray
    minor_class_accuracy: float
    selected_ids: list[int]
    wall_time: float
    notes: str = ""
    kl_rows: list[tuple[int, float, float]] | None = None
    score_rows: list[tuple] | None = None


def _stream_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


def train_joint(
    labeled: Dataset,
    cfg: ALConfig,
    cycle: int,
    test: Dataset | None = None,
) -> TrainResult:
    """Train classifier and head from scratch on the labeled set.

    Per epoch, each labeled sample's probability vector from the
    training-time forward pass (taken before that batch's update) is
    folded into its dynamics record, and the current record is the
    head's KL target for the same batch.  ``record_probs='epoch_end'``
    instead refreshes records with a full evaluation pass after each
    epoch; the head loss then starts at the second epoch.
    """
    net_cfg = replace(cfg.net, seed=_stream_seed(cfg.seed, cycle, _STREAM_NET))
    if net_cfg.input_dim != labeled.dim or net_cfg.n_classes != labeled.n_classes:
        raise ValueError("net config does not match dataset dimensions")
    net = netcore.init_net(net_cfg)
    head_cfg = tdhead.HeadConfig(
        tap_dims=[net_cfg.hidden_sizes[t] for t in net_cfg.tap_layers],
        n_classes=net_cfg.n_classes,
        reduce_dim=cfg.head_reduce_dim,
        seed=_stream_seed(cfg.seed, cycle, _STREAM_HEAD),
    )
    head = tdhead.init_head(head_cfg)
    params = net.params() + head.params()
    opt_state = netcore.init_opt_state(params, cfg.opt.kind)
    shuffle_rng = np.random.default_rng(_stream_seed(cfg.seed, cycle, _STREAM_SHUFFLE))

    store = TDStore(net_cfg.n_classes)
    trace = None
    if test is not None:
        trace = TrainingTrace(test_ids=test.ids.copy(), test_store=TDStore(net_cfg.n_classes))

    n = len(labeled)
    loss_target = loss_module = 0.0
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            Xb, yb, idsb = labeled.X[idx], labeled.y[idx], labeled.ids[idx]
            bt = netcore.forward_batch(net, net_cfg, Xb)
            targets = None
            if cfg.record_probs == "batch":
                store.update_batch(idsb, bt.probs)
                targets = store.values(idsb)
            elif np.all(store.counts(idsb) >= 1):
                targets = store.values(idsb)
            net_grads, head_grads, loss_target, loss_module = netcore.grad_joint(
                net, net_cfg, head, Xb, yb, targets, cfg.lam,
                detach=cfg.detach, sample_ids=idsb, trace=bt,
            )
            netcore.apply_update(params, net_grads + head_grads, opt_state, cfg.opt, epoch)
        if cfg.record_probs == "epoch_end":
            bt = netcore.forward_batch(net, net_cfg, labeled.X)
            store.update_batch(labeled.ids, bt.probs)
        if trace is not None:
            tt = netcore.forward_batch(net, net_cfg, test.X)
            pt, _ = tdhead.head_forward_batch(head, tt.taps)
            trace.test_probs.append(tt.probs)
            trace.head_probs.append(pt)
            trace.test_store.update_batch(test.ids, tt.probs)
    return TrainResult(net, net_cfg, head, head_cfg, store, loss_target, loss_module, trace)


def evaluate(net: NetState, net_cfg: NetConfig, test: Dataset) -> tuple[float, np.ndarray]:
    """Argmax accuracy plus per-class recall (nan for absent classes)."""
    if len(test) == 0:
        raise ValueError("test set is empty")
    probs = netcore.forward_batch(net, net_cfg, test.X).probs
    pred = probs.argmax(axis=1)
    acc = float((pred == test.y).mean())
    per_class = np.full(test.n_classes, np.nan)
    for c in range(test.n_classes):
        mask = test.y == c
        if mask.any():
            per_class[c] = float((pred[mask] == c).mean())
    return acc, per_class


def _score_subset(
    result: TrainResult, cfg: ALConfig, subset_X: np.ndarray, subset_ids: np.ndarray
) -> tuple[list[AcquisitionScore], np.ndarray]:
    bt = netcore.forward_batch(result.net, result.net_cfg, subset_X)
    p_mod = None
    if cfg.strategy in HEAD_STRATEGIES:
        p_mod, _ = tdhead.head_forward_batch(result.head, bt.taps)
    return strategy_scores(cfg.strategy, subset_ids, bt.probs, p_mod), bt.probs.argmax(axis=1)


def run_cycle(
    labeled_ids: list[int],
    pool_ids: np.ndarray,
    train: Dataset,
    test: Dataset,
    cfg: ALConfig,
    cycle: int,
    minor_classes: list[int] | None = None,
) -> tuple[TrainResult, CycleReport, list[int], np.ndarray]:
    """One protocol cycle: train from scratch, evaluate, score, select.

    Returns the train result, the cycle report, and the updated labeled
    and pool id collections.
    """
    if not labeled_ids:
        raise ValueError("labeled set is empty")
    t0 = time.perf_counter()
    labeled = train.by_ids(labeled_ids)
    result = train_joint(labeled, cfg, cycle, test=test if cfg.analysis else None)
    acc, per_class = evaluate(result.net, result.net_cfg, test)

    subset_rng = np.random.default_rng(_stream_seed(cfg.seed, cycle, _STREAM_SUBSET))
    subset_ids = sample_subset(pool_ids, cfg.subset_size, subset_rng)
    # Scoring sees features only; pool labels stay untouched until selection.
    subset_X = train.by_ids(subset_ids).X

    score_rows = None
    if cfg.strategy is StrategyKind.RANDOM:
        selected = random_select(subset_ids, cfg.budget_per_cycle, subset_rng)
    elif cfg.strategy is StrategyKind.CORESET:
        lab_feats = netcore.forward_batch(result.net, result.net_cfg, labeled.X).activations[-1]
        sub_feats = netcore.forward_batch(result.net, result.net_cfg, subset_X).activations[-1]
        selected = kcenter_greedy(lab_feats, sub_feats, subset_ids, cfg.budget_per_cycle)
    else:
        scores, pred_labels = _score_subset(result, cfg, subset_X, subset_ids)
        selected = select_top_k(scores, cfg.budget_per_cycle)
        if cfg.dump_scores:
            chosen = set(selected)
            score_rows = [
                (s.sample_id, cfg.strategy.value, s.score, int(lbl), s.sample_id in chosen)
                for s, lbl in zip(scores, pred_labels)
            ]

    new_labeled = list(labeled_ids) + [int(s) for s in selected]
    keep = ~np.isin(pool_ids, selected)
    new_pool = pool_ids[keep]

    notes = ""
    if cfg.lam == 0 and cfg.strategy in HEAD_STRATEGIES:
        notes = "untrained-head-ablation"

    minor_acc = float("nan")
    if minor_classes:
        minor_acc = float(np.mean(per_class[list(minor_classes)]))
    kl = kl_analysis(result) if cfg.analysis else None
    report = CycleReport(
        cycle=cycle,
        labeled_count=len(new_labeled),
        test_accuracy=acc,
        per_class_accuracy=per_class,
        minor_class_accuracy=minor_acc,
        selected_ids=[int(s) for s in selected],
        wall_time=time.perf_counter() - t0,
        notes=notes,
        kl_rows=kl,
        score_rows=score_rows,
    )
    return result, report, new_labeled, new_pool


def run_experiment(
    train: Dataset,
    test: Dataset,
    cfg: ALConfig,
    minor_classes: list[int] | None = None,
) -> list[CycleReport]:
    """Full protocol: seeded initial labeling, then n_cycles cycles.

    Terminates early (with the reports so far) once the pool empties.
    Output is a pure function of the config and datasets.
    """
    if cfg.initial_labeled < train.n_classes:
        warnings.warn(
            f"initial_labeled={cfg.initial_labeled} < {train.n_classes} classes;"
            " some classes may start unrepresented"
        )
    init_rng = np.random.default_rng(_stream_seed(cfg.seed, _STREAM_INIT_POOL))
    all_ids = train.ids.copy()
    labeled = [int(s) for s in sample_subset(all_ids, cfg.initial_labeled, init_rng)]
    pool = all_ids[~np.isin(all_ids, labeled)]

    reports: list[CycleReport] = []
    for cycle in range(1, cfg.n_cycles + 1):
        if pool.size == 0:
            break
        _, report, labeled, pool = run_cycle(
            labeled, pool, train, test, cfg, cycle, minor_classes
        )
        reports.append(report)
    return reports


def kl_analysis(result: TrainResult) -> list[tuple[int, float, float]]:
    """Per-epoch divergence of head prediction and snapshot from the final
    mean-probability vector, sample-averaged on the test set.

    Returns rows (epoch, kl_module, kl_snapshot), epochs 1-based.
    Requires a training run with analysis mode on.
    """
    if result.trace is None:
        raise RuntimeError("kl_analysis needs a training run with analysis mode enabled")
    trace = result.trace
    final_td = trace.test_store.values(trace.test_ids)
    rows = []
    for t, (p_t, pt_t) in enumerate(zip(trace.test_probs, trace.head_probs), start=1):
        rows.append((t, float(kl_rows(final_td, pt_t).mean()), float(kl_rows(final_td, p_t).mean())))
    return rows


def separation_auroc(scores: np.ndarray, is_minor: np.ndarray) -> float:
    """Probability a random minor sample outscores a random major one,
    ties counted half.  Scores must already be oriented so that higher
    means more uncertain."""
    scores = np.asarray(scores, dtype=np.float64)
    is_minor = np.asarray(is_minor, dtype=bool)
    if scores.shape != is_minor.shape:
        raise ValueError("scores and flags length mismatch")
    n_pos = int(is_minor.sum())
    n_neg = int((~is_minor).sum())
    if n_pos == 0 or n_neg == 0:
        raise RuntimeError("separation needs both minor and major samples")
    ranks = rankdata(scores)
    return float((ranks[is_minor].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


@dataclass
class PilotResult:
    """Scores of every training sample under six estimator variants plus
    their minor-vs-major separation; ``snapshot_labels`` are the final
    classifier's argmax labels."""

    sample_ids: np.ndarray
    labels: np.ndarray
    snapshot_labels: np.ndarray
    is_minor: np.ndarray
    scores: dict[str, np.ndarray]
    auroc: dict[str, float]
    train_result: TrainResult


def run_pilot(
    train: Dataset,
    cfg: ALConfig,
    minor_classes: list[int],
    test: Dataset | None = None,
) -> PilotResult:
    """Imbalanced separation study: train once on the full (long-tailed)
    training set, then compare snapshot scores against dynamics scores
    on the training samples themselves.

    Margins use the true labels (training data is analysis data here);
    entropy needs none.  AUROC orientation: larger = more uncertain, so
    margins enter negated.
    """
    result = train_joint(train, cfg, cycle=0, test=test)
    bt = netcore.forward_batch(result.net, result.net_cfg, train.X)
    snap = bt.probs
    td = result.store.values(train.ids)
    pred_td, _ = tdhead.head_forward_batch(result.head, bt.taps)

    labels = train.y
    scores = {
        "snapshot_entropy": np.array([entropy(p) for p in snap]),
        "td_entropy": np.array([entropy(p) for p in td]),
        "pred_td_entropy": np.array([entropy(p) for p in pred_td]),
        "snapshot_margin": np.array([margin_with_label(p, int(y)) for p, y in zip(snap, labels)]),
        "td_margin": np.array([margin_with_label(p, int(y)) for p, y in zip(td, labels)]),
        "pred_td_margin": np.array([margin_with_label(p, int(y)) for p, y in zip(pred_td, labels)]),
    }
    is_minor = np.isin(labels, list(minor_classes))
    auroc = {}
    for name, vals in scores.items():
        oriented = vals if name.endswith("entropy") else -vals
        auroc[name] = separation_auroc(oriented, is_minor)
    return PilotResult(
        train.ids.copy(), labels.copy(), snap.argmax(axis=1), is_minor, scores, auroc, result
    )


def save_results_csv(path, rows) -> None:
    """``strategy,seed,cycle,labeled_count,test_accuracy,minor_class_accuracy``."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["strategy", "seed", "cycle", "labeled_count", "test_accuracy", "minor_class_accuracy"])
        for strategy, seed, rep in rows:
            w.writerow([
                strategy,
                seed,
                rep.cycle,
                rep.labeled_count,
                repr(float(rep.test_accuracy)),
                repr(float(rep.minor_class_accuracy)),
            ])


def save_kl_csv(path, rows) -> None:
    """``epoch,kl_module,kl_snapshot`` rows from kl_analysis."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "kl_module", "kl_snapshot"])
        for epoch, kl_m, kl_s in rows:
            w.writerow([epoch, repr(float(kl_m)), repr(float(kl_s))])
