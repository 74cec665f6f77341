"""Active-learning protocol: seeded pools, per-cycle from-scratch joint
training with dynamics tracking, scoring, selection, and evaluation.

Every cycle retrains the classifier and head from a cycle-specific seed
(derived only from the experiment seed and cycle index, so strategies
are compared on identical initializations), records each labeled
sample's probability trajectory, scores a random subset of the pool
with the configured strategy, and moves the top picks into the labeled
set.  Scoring never sees pool labels; dynamics-aware strategies read
the head's predicted mean probabilities.

``train_lockstep`` is the one training loop: the trainings of same-size
labeled sets share their init and their permutations, so they run as
one ``netcore.Joint`` with a leading run axis, one ``Joint.step`` per
batch, with the bits of each training alone; ``train_joint`` is a lockstep of one run.
``run_experiments`` runs the strategies of one seed cycle by cycle.  Two
runs whose labeled ids agree, in order, at the start of a cycle train
the same model, so that cycle's training, evaluation and the pool
subset's inference passes are computed once for all of them (always so
in cycle 1); only scoring, selection and the report are per strategy.
``_train_cycle`` is the one place that trains a cycle: the distinct
labeled sets of its live runs, all of one size, in one
``train_lockstep``.  Every inference pass is ``netcore.predict``, in
aligned row blocks with the bits of one whole-array pass.
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
    of the head's loss.  The ``pilot:`` config section; checked when built."""

    epochs: int = 30
    batch_size: int = 32
    lam: float = 1.0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be nonnegative and finite")


@dataclass
class ALProtocol(Schedule):
    """The settings of one active-learning protocol: the ``al:`` config
    section; checked when built.  ``strategy`` is a strategy name; ALConfig
    turns it into a StrategyKind."""

    strategy: str = "random"
    initial_labeled: int = 20
    budget_per_cycle: int = 20
    n_cycles: int = 5
    subset_size: int = 200
    epochs: int = 60
    dump_scores: bool = False

    def __post_init__(self):
        super().__post_init__()
        StrategyKind(self.strategy)
        for name in ("initial_labeled", "budget_per_cycle", "n_cycles"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.subset_size < self.budget_per_cycle:
            raise ValueError("subset_size must be >= budget_per_cycle")


@dataclass(kw_only=True)
class ALConfig(ALProtocol):
    """A protocol bound to a network, an optimizer, a head and a seed;
    each section checks itself, and the seed is checked here."""

    net: NetConfig
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    head: tdhead.HeadConfig = field(default_factory=tdhead.HeadConfig)
    analysis: bool = False
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        self.strategy = StrategyKind(self.strategy)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class TrainResult:
    """One run's training: the classifier ``net``, built by ``net_cfg``;
    the TD ``head``; ``td``, the (n, C) TD means of the labeled set in
    dataset order, a view of the lockstep's one means array; and
    ``kl_rows``, ``kl_analysis`` of the per-epoch test snapshots, or None
    without a test set."""

    net: NetState
    net_cfg: NetConfig
    head: NetState
    td: np.ndarray
    kl_rows: list[tuple[int, float, float]] | None = None


@dataclass
class CycleReport:
    cycle: int
    labeled_count: int
    test_accuracy: float
    minor_class_accuracy: float
    selected_ids: list[int]
    kl_rows: list[tuple[int, float, float]] | None = None
    # With dump_scores and a score-based strategy: the scored ids, their raw
    # scores and argmax labels; plain lists, so that reports compare with ==.
    score_dump: tuple[list[int], list[float], list[int]] | None = None


def _stream_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


def train_joint(
    labeled: Dataset,
    cfg: ALConfig,
    cycle: int,
    test: Dataset | None = None,
) -> TrainResult:
    """Train classifier and head from scratch on the labeled set: a
    ``train_lockstep`` of one run."""
    return train_lockstep([labeled], cfg, cycle, test)[0]


def train_lockstep(
    labeled_sets: list[Dataset],
    cfg: ALConfig,
    cycle: int,
    test: Dataset | None = None,
) -> list[TrainResult]:
    """Train classifier and head from scratch on each of ``labeled_sets``,
    which hold the same number of samples, the net mapping their ``dim``
    features to their ``n_classes`` classes.  The runs share their init
    and every epoch's permutation, so they train as one training whose
    arrays carry a leading run axis: one ``netcore.Joint``, whose every
    step, ``Joint.step``, is one kernel call, one store update and one
    ``apply_update`` for all of them.  Each result has the bits of its
    set's training alone.

    Per epoch, each labeled sample's probability vector from the
    training-time forward pass (taken before that batch's update) is
    folded into its running mean, and the current mean is the head's KL
    target for the same batch; the head-loss gradient reaches the
    classifier through the tapped layers.  Store rows are positions in the
    set, and each batch is the store's fold of the next range of the
    epoch's order.  Inputs are checked here, once.  Given ``test``, each
    epoch ends with one ``netcore.predict`` of it, and ``kl_rows`` is
    ``kl_analysis`` of those snapshots.  It raises if any set's training would, not
    necessarily with that text.
    """
    if len({len(s) for s in labeled_sets}) != 1:
        raise ValueError("lockstep training needs labeled sets of one size")
    if not 0 <= cfg.lam < np.inf:
        raise ValueError("lam must be nonnegative and finite")
    if test is not None and len(test) == 0:
        raise ValueError("test set is empty")
    net_cfg, n_classes = cfg.net, labeled_sets[0].n_classes
    X = np.stack([s.X for s in labeled_sets], dtype=np.float64)
    y = np.stack([s.y for s in labeled_sets]).astype(int, copy=False)
    netcore.check_labels(y, n_classes)
    hot, ids = netcore.one_hot(y, n_classes), np.stack([s.ids for s in labeled_sets])
    runs, n, dim = X.shape
    net0 = netcore.init_net(net_cfg, dim, n_classes, _stream_seed(cfg.seed, cycle, _STREAM_NET))
    head0 = tdhead.init_head([net_cfg.hidden_sizes[t] for t in net_cfg.tap_layers], n_classes,
                             cfg.head.reduce_dim, _stream_seed(cfg.seed, cycle, _STREAM_HEAD))
    joint = netcore.Joint.init(net_cfg, net0, head0, runs=(runs,))
    shuffle_rng = np.random.default_rng(_stream_seed(cfg.seed, cycle, _STREAM_SHUFFLE))

    # The store's (runs, n, C) means are the KL targets, so their shape holds by construction.
    store = TDStore(n, n_classes, (runs,))
    snapshots = []  # per epoch with ``test``: (test-set probs, head probs), each (runs, T, C)

    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        # One gather per epoch; each batch is then a slice of it.
        X_p, hot_p, ids_p = X[:, perm], hot[:, perm], ids[:, perm]
        # ... and the store holds its means in the epoch's order: a batch's rows are a range of it.
        with store.epoch(perm):
            for lo in range(0, n, cfg.batch_size):
                rows = range(lo, min(lo + cfg.batch_size, n))
                b = slice(rows.start, rows.stop)
                joint.step(X_p[:, b], hot_p[:, b], lambda probs: store.update_batch(rows, probs),
                           cfg.lam, ids_p[:, b], cfg.opt, epoch)
        if test is not None:
            snapshots.append(netcore.predict(joint.net, net_cfg, test.X, head=joint.head)[:2])
    return [TrainResult(joint.net.run(r), net_cfg, joint.head.run(r), store.mean[r],
                        kl_analysis([(p[r], pt[r]) for p, pt in snapshots])
                        if test is not None else None)
            for r in range(runs)]


def evaluate(net: NetState, net_cfg: NetConfig, test: Dataset) -> tuple[float, np.ndarray]:
    """Argmax accuracy plus per-class recall (nan for absent classes)."""
    if len(test) == 0:
        raise ValueError("test set is empty")
    pred = netcore.predict(net, net_cfg, test.X)[0].argmax(axis=1)
    right = pred == test.y
    acc = float(right.mean())
    # Exact integer counts, divided as a mean divides them.
    counts = np.bincount(test.y, minlength=test.n_classes)
    hits = np.bincount(test.y[right], minlength=test.n_classes)
    per_class = np.divide(hits, counts, out=np.full(test.n_classes, np.nan), where=counts > 0)
    return acc, per_class


class _SharedCycle:
    """The work of one cycle that follows from (config minus strategy,
    cycle, labeled ids in order): the labeled set, the model trained on
    it, its test accuracy and the pool subset.  Inference passes that only
    some strategies read are computed on first use."""

    def __init__(self, labeled: Dataset, result: TrainResult, pool_ids, train: Dataset,
                 test: Dataset, cfg: ALConfig, cycle: int):
        self.train, self.labeled, self.result = train, labeled, result
        self.accuracy, self.per_class = evaluate(self.result.net, self.result.net_cfg, test)
        # After the subset draw, random selection continues a copy of this stream.
        self.rng = np.random.default_rng(_stream_seed(cfg.seed, cycle, _STREAM_SUBSET))
        self.subset_ids = sample_subset(pool_ids, cfg.subset_size, self.rng)
        self._subset_probs = None

    @cached_property
    def subset_X(self) -> np.ndarray:
        # Scoring sees features only; pool labels stay untouched until selection.
        return self.train.by_ids(self.subset_ids).X

    def subset_probs(self, with_head: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """The subset's class probabilities and, ``with_head``, the head's
        (else None, unless an earlier call computed them): the score
        strategies' input, from one pass that later calls reuse."""
        if self._subset_probs is None or with_head and self._subset_probs[1] is None:
            self._subset_probs = netcore.predict(self.result.net, self.result.net_cfg, self.subset_X,
                                                 head=self.result.head if with_head else None)[:2]
        return self._subset_probs

    @cached_property
    def features(self) -> tuple[np.ndarray, np.ndarray]:
        """The labeled set's and the subset's last hidden layers: k-center's input."""
        net, net_cfg = self.result.net, self.result.net_cfg
        return (netcore.predict(net, net_cfg, self.labeled.X, features=True)[2],
                netcore.predict(net, net_cfg, self.subset_X, features=True)[2])


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
    and pool id collections.  ``memo`` holds the shared work of one
    cycle's calls with configs that differ only in strategy, keyed on the
    labeled ids in order (``_train_cycle``): the same ids in another order
    train another model.  The pool must follow from the labeled ids, as
    it does in ``run_experiments``.  A call that raises before the
    training is done stores nothing.
    """
    if not labeled_ids:
        raise ValueError("labeled set is empty")
    memo = {} if memo is None else memo
    key = tuple(labeled_ids)
    if key not in memo:
        _train_cycle(memo, [(labeled_ids, pool_ids)], cfg, train, test, cycle)
    shared = memo[key]
    subset_ids = shared.subset_ids

    score_dump = None
    if cfg.strategy is StrategyKind.RANDOM:
        selected = sample_subset(subset_ids, cfg.budget_per_cycle, copy.deepcopy(shared.rng))
    elif cfg.strategy is StrategyKind.CORESET:
        selected = kcenter_greedy(*shared.features, subset_ids, cfg.budget_per_cycle)
    else:
        probs, head_probs = shared.subset_probs(cfg.strategy in HEAD_STRATEGIES)
        scores = strategy_scores(cfg.strategy, probs, head_probs)
        selected = select_top_k(subset_ids, uncertainty(cfg.strategy, scores), cfg.budget_per_cycle)
        if cfg.dump_scores:
            score_dump = (subset_ids.tolist(), scores.tolist(), probs.argmax(axis=1).tolist())

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
        kl_rows=shared.result.kl_rows,
        score_dump=score_dump,
    )
    return shared.result, report, new_labeled, new_pool


def check_experiment_inputs(train: Dataset, test: Dataset, protocol: ALProtocol,
                            strategies: list[str | StrategyKind],
                            minor_classes: list[int] | None = None) -> None:
    """ValueError for input that ``run_experiments`` cannot run under
    ``protocol`` (an ALConfig or the ``al:`` section): no strategy, an
    initial labeling of the whole training set, or a minor class with no
    test sample (its accuracy would be nan)."""
    if not strategies:
        raise ValueError("no strategies given")
    if protocol.initial_labeled >= len(train):
        raise ValueError(f"initial_labeled={protocol.initial_labeled} must be below the"
                         f" training-set size {len(train)}")
    for c in minor_classes or []:
        if not (test.y == c).any():
            raise ValueError(f"minor class {c} has no test sample, so its accuracy is undefined")


def run_experiments(
    train: Dataset,
    test: Dataset,
    cfg: ALConfig,
    strategies: list[str | StrategyKind],
    minor_classes: list[int] | None = None,
) -> list[list[CycleReport] | Exception]:
    """The full protocol of ``cfg`` under each of ``strategies`` (run i
    reads ``replace(cfg, strategy=strategies[i])``): seeded initial
    labeling, then n_cycles cycles, run cycle by cycle.  Each cycle first
    trains the distinct labeled sets of its live runs (all of one size,
    since the pools shrink together) in one ``_train_cycle``, so that runs
    at the same labeled ids share that cycle's training, and then runs
    each strategy's ``run_cycle``.

    Returns, per strategy, its reports, or the exception its run raised;
    a failed run leaves the others to finish.  A cycle whose training
    diverges (FloatingPointError, how one run's training fails) stores
    nothing, so its runs train alone in ``run_cycle`` and fail there, or
    not, as they would alone; a cycle's training that raises anything
    else raises here.  A run ends early (with the reports so far) once its
    pool empties.  Before any training, ``check_experiment_inputs`` raises
    ValueError for bad input.  Output is a pure function of the config,
    strategies and datasets.
    """
    check_experiment_inputs(train, test, cfg, strategies, minor_classes)
    cfgs = [replace(cfg, strategy=s) for s in strategies]
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
            live = [i for i, (_, pool) in enumerate(runs)
                    if not isinstance(outcomes[i], Exception) and pool.size > 0]
            if not live:
                break
            try:
                _train_cycle(memo, [runs[i] for i in live], cfg, train, test, cycle)
            except FloatingPointError:
                pass  # its runs train alone in run_cycle, and fail there as they would alone
            for i in live:
                labeled, pool = runs[i]
                try:
                    _, report, labeled, pool = run_cycle(
                        labeled, pool, train, test, cfgs[i], cycle, minor_classes, memo=memo
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


def _train_cycle(memo: dict, runs, cfg: ALConfig, train: Dataset, test: Dataset,
                 cycle: int) -> None:
    """Train the distinct labeled sets among ``runs``, (labeled ids, pool)
    pairs of one labeled size under ``cfg`` but for its strategy, in one
    ``train_lockstep``, and put each set's ``_SharedCycle`` into ``memo``
    under its labeled ids in order.  A memo holds one cycle's work.  It
    stores nothing if anything raises."""
    distinct: dict[tuple, tuple] = {}
    for labeled_ids, pool_ids in runs:
        distinct.setdefault(tuple(labeled_ids), (labeled_ids, pool_ids))
    sets = [train.by_ids(labeled_ids) for labeled_ids, _ in distinct.values()]
    results = train_lockstep(sets, cfg, cycle, test=test if cfg.analysis else None)
    memo.update({key: _SharedCycle(labeled, result, pool_ids, train, test, cfg, cycle)
                 for (key, (_, pool_ids)), labeled, result
                 in zip(distinct.items(), sets, results)})


def kl_analysis(snapshots: list[tuple[np.ndarray, np.ndarray]]) -> list[tuple[int, float, float]]:
    """Per-epoch divergence of head prediction and snapshot from the final
    mean-probability vector, sample-averaged on the test set.

    ``snapshots`` holds one (test-set probs, head probs) pair per epoch,
    in training order; the final mean folds the test-set probs through
    one TDStore, one epoch each.  Returns rows (epoch, kl_module,
    kl_snapshot), epochs 1-based.
    """
    n, n_classes = snapshots[0][0].shape
    test_store, rows = TDStore(n, n_classes), range(n)
    for p_t, _ in snapshots:
        with test_store.epoch(rows):  # an epoch in dataset order, folded whole
            test_store.update_batch(rows, p_t)
    final_td = test_store.values(rows)
    return [(t, float(kl_rows(final_td, pt_t).mean()), float(kl_rows(final_td, p_t).mean()))
            for t, (p_t, pt_t) in enumerate(snapshots, start=1)]


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
    """Scores of every training sample, in training-set order, under six
    estimator variants plus their minor-vs-major separation;
    ``snapshot_labels`` are the final classifier's argmax labels."""

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
    A training set without minor or major samples is a ValueError.
    """
    labels = train.y
    is_minor = np.isin(labels, list(minor_classes))
    if is_minor.all() or not is_minor.any():
        raise ValueError("pilot needs an imbalanced dataset: both minor and major training samples")
    result = train_joint(train, cfg, cycle=0)
    snap, pred_td, _ = netcore.predict(result.net, result.net_cfg, train.X, head=result.head)

    vectors = {"snapshot": snap, "td": result.td, "pred_td": pred_td}
    scores = {f"{name}_entropy": entropy(p) for name, p in vectors.items()}
    scores.update({f"{name}_margin": margin(p, labels) for name, p in vectors.items()})
    auroc = {k: separation_auroc(uncertainty(k, v), is_minor) for k, v in scores.items()}
    return PilotResult(snap.argmax(axis=1), is_minor, scores, auroc, result)


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
