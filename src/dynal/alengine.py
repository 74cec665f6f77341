"""Active-learning protocol: seeded pools, per-cycle from-scratch joint
training with dynamics tracking, scoring, selection, and evaluation.

Every cycle retrains the classifier and head from a cycle-specific seed
(derived only from the experiment seed and cycle index, so strategies
are compared on identical initializations), records each labeled
sample's probability trajectory, scores a random subset of the pool
with the configured strategy, and moves the top picks into the labeled
set.  Scoring never sees pool labels; dynamics-aware strategies read
the head's predicted mean probabilities.

``run_experiments`` runs the strategies of one seed cycle by cycle.  Two
runs whose labeled ids agree, in order, at the start of a cycle train
the same model, so that cycle's training, evaluation and the pool
subset's forward passes are computed once for all of them (always so in
cycle 1); only scoring, selection and the report are per strategy.
"""

from __future__ import annotations

import copy
import traceback
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import netcore, tdhead
from .acquisition import kcenter_greedy, sample_subset, select_top_k
from .datasets import Dataset
from .estimators import HEAD_STRATEGIES, StrategyKind, entropy, margin, strategy_scores, uncertainty
from .netcore import NetConfig, NetState, OptimizerConfig
from .numutil import kl_rows, write_csv
from .tdtrack import TDStore

# Stream labels for deriving independent RNGs from (seed, cycle).
_STREAM_INIT_POOL = 101
_STREAM_NET = 1
_STREAM_HEAD = 2
_STREAM_SHUFFLE = 3
_STREAM_SUBSET = 4


@dataclass
class Schedule:
    """How one model is trained: epochs, minibatch size and the weight
    of the head's loss.  The ``pilot:`` config section."""

    epochs: int = 30
    batch_size: int = 32
    lam: float = 1.0


@dataclass
class ALProtocol(Schedule):
    """The settings of one active-learning protocol: the ``al:`` config
    section.  ``strategy`` is a strategy name; ALConfig turns it into a
    StrategyKind."""

    strategy: str = "random"
    initial_labeled: int = 20
    budget_per_cycle: int = 20
    n_cycles: int = 5
    subset_size: int = 200
    epochs: int = 60
    dump_scores: bool = False


@dataclass(kw_only=True)
class ALConfig(ALProtocol):
    """A protocol bound to a network, an optimizer, a head and a seed;
    checked when built."""

    net: NetConfig
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    head: tdhead.HeadConfig = field(default_factory=tdhead.HeadConfig)
    analysis: bool = False
    seed: int = 0

    def __post_init__(self):
        self.strategy = StrategyKind.from_string(self.strategy)
        if self.initial_labeled < 1 or self.budget_per_cycle < 1:
            raise ValueError("initial_labeled and budget_per_cycle must be >= 1")
        if self.subset_size < self.budget_per_cycle:
            raise ValueError("subset_size must be >= budget_per_cycle")
        if self.n_cycles < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("n_cycles, epochs and batch_size must be >= 1")
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be nonnegative and finite")
        if self.head.reduce_dim < 1:
            raise ValueError("head.reduce_dim must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class TrainingTrace:
    """Per-epoch test-set snapshots kept only in analysis mode."""

    test_probs: list[np.ndarray] = field(default_factory=list)
    head_probs: list[np.ndarray] = field(default_factory=list)
    test_store: TDStore | None = None


@dataclass
class TrainResult:
    net: NetState
    net_cfg: NetConfig
    head: tdhead.HeadState
    store: TDStore
    trace: TrainingTrace | None = None


@dataclass
class CycleReport:
    cycle: int
    labeled_count: int
    test_accuracy: float
    minor_class_accuracy: float
    selected_ids: list[int]
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
    """Train classifier and head from scratch on the labeled set, the net
    mapping its ``dim`` features to its ``n_classes`` classes.

    Per epoch, each labeled sample's probability vector from the
    training-time forward pass (taken before that batch's update) is
    folded into its running mean, and the current mean is the head's KL
    target for the same batch; the head-loss gradient reaches the
    classifier through the tapped layers.  Store rows are positions in
    ``labeled`` (and in ``test`` for the trace).  Inputs are checked here,
    once: each step is one ``netcore._joint_step`` into one gradient
    vector, then ``netcore.apply_update``.
    """
    net_cfg, n_classes = cfg.net, labeled.n_classes
    if not 0 <= cfg.lam < np.inf:
        raise ValueError("lam must be nonnegative and finite")
    X = np.atleast_2d(np.asarray(labeled.X, dtype=np.float64))
    y = np.asarray(labeled.y, dtype=int)
    netcore.check_labels(y, n_classes)
    theta, net, head = netcore.flatten(
        netcore.init_net(net_cfg, labeled.dim, n_classes,
                         _stream_seed(cfg.seed, cycle, _STREAM_NET)),
        tdhead.init_head([net_cfg.hidden_sizes[t] for t in net_cfg.tap_layers], n_classes,
                         cfg.head.reduce_dim, _stream_seed(cfg.seed, cycle, _STREAM_HEAD)),
    )
    grad, grad_net, grad_head = netcore._gradient(net, head)
    opt_state = netcore.init_opt_state(theta)
    shuffle_rng = np.random.default_rng(_stream_seed(cfg.seed, cycle, _STREAM_SHUFFLE))

    n = len(labeled)
    # The store's (n, C) means are the KL targets, so their shape holds by construction.
    store = TDStore(n, n_classes)
    trace = None
    if test is not None:
        trace = TrainingTrace(test_store=TDStore(len(test), n_classes))

    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            netcore._joint_step(net, net_cfg, head, X[idx], y[idx],
                                lambda probs: store.update_batch(idx, probs), cfg.lam,
                                labeled.ids[idx], grad_net, grad_head)
            netcore.apply_update(theta, grad, opt_state, cfg.opt, epoch)
        if trace is not None:
            tt = netcore.forward_batch(net, net_cfg, test.X)
            pt, _ = tdhead.head_forward_batch(head, tt.taps)
            trace.test_probs.append(tt.probs)
            trace.head_probs.append(pt)
            trace.test_store.update_batch(np.arange(len(test)), tt.probs)
    return TrainResult(net, net_cfg, head, store, trace)


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


class _SharedCycle:
    """The work of one cycle that follows from (config minus strategy,
    cycle, labeled ids in order): the labeled set, the trained model, its
    test accuracy and the pool subset.  Forward passes that only some
    strategies read are computed on first use."""

    def __init__(self, labeled_ids, pool_ids, train: Dataset, test: Dataset, cfg: ALConfig,
                 cycle: int):
        self.train = train
        self.labeled = train.by_ids(labeled_ids)
        self.result = train_joint(self.labeled, cfg, cycle, test=test if cfg.analysis else None)
        self.accuracy, self.per_class = evaluate(self.result.net, self.result.net_cfg, test)
        self.kl = kl_analysis(self.result) if cfg.analysis else None
        # After the subset draw, random selection continues a copy of this stream.
        self.rng = np.random.default_rng(_stream_seed(cfg.seed, cycle, _STREAM_SUBSET))
        self.subset_ids = sample_subset(pool_ids, cfg.subset_size, self.rng)

    @cached_property
    def subset_trace(self) -> netcore.BatchTrace:
        # Scoring sees features only; pool labels stay untouched until selection.
        subset_X = self.train.by_ids(self.subset_ids).X
        return netcore.forward_batch(self.result.net, self.result.net_cfg, subset_X)

    @cached_property
    def subset_head_probs(self) -> np.ndarray:
        return tdhead.head_forward_batch(self.result.head, self.subset_trace.taps)[0]

    @cached_property
    def labeled_features(self) -> np.ndarray:
        return netcore.forward_batch(self.result.net, self.result.net_cfg,
                                     self.labeled.X).activations[-1]


def run_cycle(
    labeled_ids: list[int],
    pool_ids: np.ndarray,
    train: Dataset,
    test: Dataset,
    cfg: ALConfig,
    cycle: int,
    minor_classes: list[int] | None = None,
    *,
    memo: dict | None = None,
) -> tuple[TrainResult, CycleReport, list[int], np.ndarray]:
    """One protocol cycle: train from scratch, evaluate, score, select.

    Returns the train result, the cycle report, and the updated labeled
    and pool id collections.  ``memo`` holds the shared work of calls
    made for one cycle with configs that differ only in strategy, keyed
    on (cycle, labeled ids in order): the same ids in another order
    train another model.  The pool must follow from the labeled ids, as
    it does in ``run_experiments``.  A call that raises before the
    training is done stores nothing.
    """
    if not labeled_ids:
        raise ValueError("labeled set is empty")
    memo = {} if memo is None else memo
    key = (cycle, tuple(labeled_ids))
    shared = memo.get(key)
    if shared is None:
        shared = memo[key] = _SharedCycle(labeled_ids, pool_ids, train, test, cfg, cycle)
    subset_ids = shared.subset_ids

    score_rows = None
    if cfg.strategy is StrategyKind.RANDOM:
        selected = sample_subset(subset_ids, cfg.budget_per_cycle, copy.deepcopy(shared.rng))
    elif cfg.strategy is StrategyKind.CORESET:
        selected = kcenter_greedy(shared.labeled_features, shared.subset_trace.activations[-1],
                                  subset_ids, cfg.budget_per_cycle)
    else:
        probs = shared.subset_trace.probs
        p_mod = shared.subset_head_probs if cfg.strategy in HEAD_STRATEGIES else None
        scores = strategy_scores(cfg.strategy, probs, p_mod)
        selected = select_top_k(subset_ids, uncertainty(cfg.strategy, scores), cfg.budget_per_cycle)
        if cfg.dump_scores:
            chosen = np.isin(subset_ids, selected)
            score_rows = [
                (sid, cfg.strategy.value, s, lbl, c)
                for sid, s, lbl, c in zip(subset_ids.tolist(), scores.tolist(),
                                          probs.argmax(axis=1).tolist(), chosen.tolist())
            ]

    new_labeled = list(labeled_ids) + [int(s) for s in selected]
    keep = ~np.isin(pool_ids, selected)
    new_pool = pool_ids[keep]

    minor_acc = float("nan")
    if minor_classes:
        minor_acc = float(np.mean(shared.per_class[list(minor_classes)]))
    report = CycleReport(
        cycle=cycle,
        labeled_count=len(new_labeled),
        test_accuracy=shared.accuracy,
        minor_class_accuracy=minor_acc,
        selected_ids=[int(s) for s in selected],
        kl_rows=shared.kl,
        score_rows=score_rows,
    )
    return shared.result, report, new_labeled, new_pool


def run_experiments(
    train: Dataset,
    test: Dataset,
    cfg: ALConfig,
    strategies: list[str | StrategyKind],
    minor_classes: list[int] | None = None,
) -> list[list[CycleReport] | Exception]:
    """The full protocol of ``cfg`` under each of ``strategies`` (run i
    reads ``replace(cfg, strategy=strategies[i])``): seeded initial
    labeling, then n_cycles cycles, run cycle by cycle so that runs at
    the same labeled ids share each cycle's training.

    Returns, per strategy, its reports, or the exception its run raised;
    a failed run leaves the others to finish.  A run ends early (with
    the reports so far) once its pool empties.  An initial labeling of
    the whole training set raises ValueError before any training.
    Output is a pure function of the config, strategies and datasets.
    """
    if not strategies:
        raise ValueError("no strategies given")
    cfgs = [replace(cfg, strategy=s) for s in strategies]
    if cfg.initial_labeled >= len(train):
        raise ValueError(f"initial_labeled={cfg.initial_labeled} must be below the"
                         f" training-set size {len(train)}")
    if cfg.initial_labeled < train.n_classes:
        warnings.warn(
            f"initial_labeled={cfg.initial_labeled} < {train.n_classes} classes;"
            " some classes may start unrepresented"
        )
    init_rng = np.random.default_rng(_stream_seed(cfg.seed, _STREAM_INIT_POOL))
    all_ids = train.ids.copy()
    start = [int(s) for s in sample_subset(all_ids, cfg.initial_labeled, init_rng)]
    runs = [(start, all_ids[~np.isin(all_ids, start)])] * len(cfgs)
    outcomes: list = [[] for _ in cfgs]

    for cycle in range(1, cfg.n_cycles + 1):
        memo: dict = {}
        try:
            for i, c in enumerate(cfgs):
                labeled, pool = runs[i]
                if isinstance(outcomes[i], Exception) or pool.size == 0:
                    continue
                try:
                    _, report, labeled, pool = run_cycle(
                        labeled, pool, train, test, c, cycle, minor_classes, memo=memo
                    )
                except Exception as e:
                    traceback.clear_frames(e.__traceback__)  # keep the error, not its arrays
                    outcomes[i] = e
                    continue
                runs[i] = (labeled, pool)
                outcomes[i].append(report)
        finally:
            memo.clear()  # a cycle's models and forward passes end with it
    return outcomes


def run_experiment(
    train: Dataset,
    test: Dataset,
    cfg: ALConfig,
    minor_classes: list[int] | None = None,
) -> list[CycleReport]:
    """``run_experiments`` for ``cfg``'s own strategy; raises what its run raised."""
    (outcome,) = run_experiments(train, test, cfg, [cfg.strategy], minor_classes)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def kl_analysis(result: TrainResult) -> list[tuple[int, float, float]]:
    """Per-epoch divergence of head prediction and snapshot from the final
    mean-probability vector, sample-averaged on the test set.

    Returns rows (epoch, kl_module, kl_snapshot), epochs 1-based.
    Requires a training run with analysis mode on.
    """
    if result.trace is None:
        raise RuntimeError("kl_analysis needs a training run with analysis mode enabled")
    trace = result.trace
    final_td = trace.test_store.values(np.arange(trace.test_store.count.size))
    rows = []
    for t, (p_t, pt_t) in enumerate(zip(trace.test_probs, trace.head_probs), start=1):
        rows.append((t, float(kl_rows(final_td, pt_t).mean()), float(kl_rows(final_td, p_t).mean())))
    return rows


def separation_auroc(scores: np.ndarray, is_minor: np.ndarray) -> float:
    """Probability a random minor sample outscores a random major one,
    ties counted half: the Mann-Whitney U over n_minor * n_major.  Scores
    must already be oriented so that higher means more uncertain; a NaN
    score is a ValueError."""
    scores = np.asarray(scores, dtype=np.float64)
    is_minor = np.asarray(is_minor, dtype=bool)
    if scores.shape != is_minor.shape:
        raise ValueError("scores and flags length mismatch")
    if np.isnan(scores).any():
        raise ValueError("scores contain NaN")
    n_pos = int(is_minor.sum())
    n_neg = int((~is_minor).sum())
    if n_pos == 0 or n_neg == 0:
        raise RuntimeError("separation needs both minor and major samples")
    neg = np.sort(scores[~is_minor])
    pos = scores[is_minor]
    u = (np.searchsorted(neg, pos, "left") + np.searchsorted(neg, pos, "right")).sum() / 2
    return float(u / (n_pos * n_neg))


@dataclass
class PilotResult:
    """Scores of every training sample under six estimator variants plus
    their minor-vs-major separation; ``snapshot_labels`` are the final
    classifier's argmax labels."""

    sample_ids: np.ndarray
    snapshot_labels: np.ndarray
    is_minor: np.ndarray
    scores: dict[str, np.ndarray]
    auroc: dict[str, float]
    train_result: TrainResult


def run_pilot(
    train: Dataset,
    cfg: ALConfig,
    minor_classes: list[int],
) -> PilotResult:
    """Imbalanced separation study: train once on the full (long-tailed)
    training set, then compare snapshot scores against dynamics scores
    on the training samples themselves.

    Margins use the true labels (training data is analysis data here);
    entropy needs none.  AUROC reads the scores through ``uncertainty``.
    """
    result = train_joint(train, cfg, cycle=0)
    bt = netcore.forward_batch(result.net, result.net_cfg, train.X)
    snap = bt.probs
    td = result.store.values(np.arange(len(train)))
    pred_td, _ = tdhead.head_forward_batch(result.head, bt.taps)

    labels = train.y
    vectors = {"snapshot": snap, "td": td, "pred_td": pred_td}
    scores = {f"{name}_entropy": entropy(p) for name, p in vectors.items()}
    scores.update({f"{name}_margin": margin(p, labels) for name, p in vectors.items()})
    is_minor = np.isin(labels, list(minor_classes))
    auroc = {k: separation_auroc(uncertainty(k, v), is_minor) for k, v in scores.items()}
    return PilotResult(train.ids.copy(), snap.argmax(axis=1), is_minor, scores, auroc, result)


def save_results_csv(path, rows) -> None:
    """``strategy,seed,cycle,labeled_count,test_accuracy,minor_class_accuracy``
    from (strategy, seed, CycleReport) rows."""
    write_csv(
        path,
        ["strategy", "seed", "cycle", "labeled_count", "test_accuracy", "minor_class_accuracy"],
        [(strategy, seed, rep.cycle, rep.labeled_count, rep.test_accuracy, rep.minor_class_accuracy)
         for strategy, seed, rep in rows],
    )


def save_kl_csv(path, rows) -> None:
    """``epoch,kl_module,kl_snapshot`` rows from kl_analysis."""
    write_csv(path, ["epoch", "kl_module", "kl_snapshot"], rows)
