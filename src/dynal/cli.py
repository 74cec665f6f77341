"""Command-line front end: YAML configs in, CSV artifacts out.

Commands
--------
al-run             seeds x strategies active-learning runs + summary CSV
pilot              imbalanced major/minor separation study (score dump + AUROC)
kl-analysis        per-epoch divergence of head prediction vs snapshot
theory-sde         stochastic elasticity simulation + averaged ODE trajectories
theory-closed-form closed-form entropy/margin over an s_y grid
gen-data           generate and save the configured dataset

All artifacts are plain CSV with headers; re-running a command with the
same config and flags rewrites byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import traceback
import types
import typing
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import alengine, theorysim
from .alengine import ALConfig, ALProtocol, Schedule, save_kl_csv, save_results_csv
from .datasets import DatasetSpec, build_dataset, save_csv
from .estimators import StrategyKind, save_scores_csv
from .netcore import NetConfig, OptimizerConfig
from .numutil import write_csv
from .tdhead import HeadConfig
from .theorysim import ElasticityModel, ElasticityParams

DEFAULT_SY_GRID = [round(0.55 + 0.05 * i, 2) for i in range(9)]


@dataclass
class TheorySection(ElasticityModel):
    """The elasticity model plus the commands' integration and grid settings; checked when built."""

    n_runs: int = 200
    dt: float = 1e-3
    t_end: float = 5.0
    sy_values: list[float] = field(default_factory=lambda: list(DEFAULT_SY_GRID))
    classes: list[int] = field(default_factory=lambda: [2, 3, 10, 100])

    def __post_init__(self):
        super().__post_init__()
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        theorysim.ode_steps(self.dt, self.t_end)
        theorysim.check_closed_form_domain(self.sy_values, self.classes)

    def elasticity_params(self, seed: int) -> ElasticityParams:
        model = {f.name: getattr(self, f.name) for f in dataclasses.fields(ElasticityModel)}
        return ElasticityParams(**model, seed=seed)


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    net: NetConfig = field(default_factory=NetConfig)
    head: HeadConfig = field(default_factory=HeadConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    al: ALProtocol = field(default_factory=ALProtocol)
    theory: TheorySection = field(default_factory=TheorySection)
    pilot: Schedule = field(default_factory=Schedule)


@functools.cache
def _hints(cls) -> types.MappingProxyType:
    """The type hints of a config section's fields, resolved once per class
    and shared read-only by every parse.

    Names resolve in this module's namespace first: run as ``__main__``
    (``python -m cProfile -m dynal.cli``), sys.modules[cls.__module__] may
    be another module."""
    return types.MappingProxyType(typing.get_type_hints(cls, localns=globals()))


def _build_section(cls, mapping, path: str):
    """Instantiate a dataclass from a mapping, rejecting unknown keys and
    values that do not match the field's type hint."""
    if not isinstance(mapping, dict):
        raise ValueError(f"config section '{path}' must be a mapping")
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in mapping.items():
        key_path = f"{path}.{key}" if path else str(key)
        if key not in known:
            raise ValueError(f"unknown config key '{key_path}'")
        kwargs[key] = _check_value(_hints(cls)[key], value, key_path)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ValueError(f"invalid config section '{path}': {e}") from None


def _check_value(hint, value, path: str):
    """``value`` checked against a field's type hint; a dataclass-typed
    field is built as a nested section.  Ints pass where a float is
    declared; bools pass only where a bool is."""
    if dataclasses.is_dataclass(hint):
        return _build_section(hint, value, path)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # every union here is ``X | None``
        return None if value is None else _check_value(args[0], value, path)
    if origin is list:
        if not isinstance(value, list):
            raise ValueError(f"config key '{path}' must be a list, got {value!r}")
        return [_check_value(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    allowed = (int, float) if hint is float else (hint,)
    if type(value) not in allowed:
        raise ValueError(f"config key '{path}' must be {hint.__name__}, got {value!r}")
    return value


def _reject_repeated_keys(node, walked: set) -> None:
    """ValueError naming the first key written twice in one mapping of the
    composed tree below ``node``.  The walk takes children before their
    mapping, in document order, as a streaming composer finishes them, and
    takes each node once (by ``id``): an alias is the node of its anchor."""
    if id(node) in walked:
        return
    walked.add(id(node))
    if isinstance(node, yaml.SequenceNode):
        for item in node.value:
            _reject_repeated_keys(item, walked)
    elif isinstance(node, yaml.MappingNode):
        for key, value in node.value:
            _reject_repeated_keys(key, walked)
            _reject_repeated_keys(value, walked)
        seen = set()
        for key, _ in node.value:
            if isinstance(key, yaml.ScalarNode):
                if (key.tag, key.value) in seen:
                    mark = key.start_mark
                    raise ValueError(f"{mark.name}: repeated config key '{key.value}'"
                                     f" at line {mark.line + 1}")
                seen.add((key.tag, key.value))


class _ConfigLoader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """PyYAML's safe loader, libyaml's when PyYAML was built with it, that
    rejects a key written twice in one mapping.  libyaml composes the whole
    document in C, so the check walks the composed tree once, before the
    constructor flattens any ``<<:`` merge: a key that overrides a merged
    one is not a repeat, and a repeat inside a merged mapping is one."""

    def get_single_node(self):
        node = super().get_single_node()
        if node is not None:
            _reject_repeated_keys(node, set())
        return node


def parse_config(path) -> ExperimentConfig:
    """Load and validate a YAML experiment config; defaults fill gaps."""
    with open(path) as f:
        raw = yaml.load(f, Loader=_ConfigLoader)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: top level must be a mapping")
    return _build_section(ExperimentConfig, raw, "")


def build_run_config(cfg: ExperimentConfig, schedule: Schedule, seed: int,
                     analysis: bool = False) -> ALConfig:
    """The run of ``schedule`` (``cfg.al``, or ``cfg.pilot``, whose run
    keeps the protocol defaults) at ``seed``, with ``cfg``'s network,
    optimizer and head; ``run_experiments`` varies its strategy."""
    return ALConfig(**dataclasses.asdict(schedule), net=cfg.net, opt=cfg.optimizer,
                    head=cfg.head, analysis=analysis, seed=seed)


def _save_run(strategy: str, seed: int, reports, out: Path) -> list:
    """Write one (strategy, seed) run's artifacts; returns its summary rows."""
    rows = [(strategy, seed, rep) for rep in reports]
    save_results_csv(out / f"results_{strategy}_seed{seed}.csv", rows)
    for rep in reports:
        if rep.score_dump is not None:
            ids, scores, labels = rep.score_dump
            save_scores_csv(out / f"scores_{strategy}_seed{seed}_cycle{rep.cycle}.csv",
                            ids, {strategy: scores}, labels, rep.selected_ids)
        if rep.kl_rows is not None:
            save_kl_csv(out / f"kl_{strategy}_seed{seed}_cycle{rep.cycle}.csv", rep.kl_rows)
    return rows


def _al_worker(job):
    """The active-learning runs of one seed, one per strategy, sharing each
    cycle's training.  Returns per strategy (summary rows, None), or
    (None, traceback text) for a run that raised and wrote nothing."""
    train, test, al_cfg, strategies, minor, out_dir = job
    outcomes = alengine.run_experiments(train, test, al_cfg, strategies, minor)
    runs = []
    for strategy, outcome in zip(strategies, outcomes):
        try:
            if isinstance(outcome, Exception):
                raise outcome
            runs.append((_save_run(strategy, al_cfg.seed, outcome, Path(out_dir)), None))
        except Exception:
            runs.append((None, traceback.format_exc()))
    return runs


def _run_al(args: argparse.Namespace, cfg: ExperimentConfig, out: Path) -> int:
    train, test = build_dataset(cfg.dataset)
    minor = cfg.dataset.imbalance.minor_classes_for(train.n_classes)
    # Bad input exits 2 here, before any job; whatever a job raises fails its seed.
    alengine.check_experiment_inputs(train, test, cfg.al, args.strategies, minor)
    # One job runs every strategy of a seed.
    jobs = [(train, test, build_run_config(cfg, cfg.al, seed, analysis=args.analysis),
             args.strategies, minor, str(out)) for seed in args.seeds]

    by_seed = []  # per seed, per strategy: (rows, traceback)
    # One worker runs in this process; more run in a pool of that many processes.
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        # Imported only here: the pool loads multiprocessing, socket and subprocess.
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        futures = [pool.submit(_al_worker, job) if pool else None for job in jobs]
        for job, fut in zip(jobs, futures):
            try:
                by_seed.append(_al_worker(job) if fut is None else fut.result())
            except Exception:
                by_seed.append([(None, traceback.format_exc())] * len(args.strategies))

    failures = []
    all_rows: list = []
    for i, strategy in enumerate(args.strategies):
        for seed, seed_runs in zip(args.seeds, by_seed):
            rows, error = seed_runs[i]
            if error is None:
                all_rows.extend(rows)
            else:
                failures.append(f"{strategy}-seed{seed}")
                print(error, end="", file=sys.stderr)
    save_results_csv(out / "summary.csv", all_rows)
    if failures:
        print(f"FAILED runs: {', '.join(failures)}", file=sys.stderr)
        return 1
    for strategy, seed, rep in all_rows:
        print(
            f"{strategy} seed={seed} cycle={rep.cycle} labeled={rep.labeled_count}"
            f" acc={rep.test_accuracy:.4f}"
        )
    return 0


def _run_pilot(args: argparse.Namespace, cfg: ExperimentConfig, out: Path) -> int:
    train, _ = build_dataset(cfg.dataset)
    minor = cfg.dataset.imbalance.minor_classes_for(train.n_classes)
    auroc_rows = []
    for seed in args.seeds:
        pilot = alengine.run_pilot(train, build_run_config(cfg, cfg.pilot, seed), minor)
        save_scores_csv(out / f"scores_pilot_seed{seed}.csv", train.ids, pilot.scores,
                        pilot.snapshot_labels)
        for name, a in pilot.auroc.items():
            auroc_rows.append((name, seed, a))
            print(f"pilot seed={seed} {name}: separation AUROC = {a:.4f}")
    write_csv(out / "pilot_auroc.csv", ["estimator", "seed", "auroc"], auroc_rows)
    return 0


def _run_kl(args: argparse.Namespace, cfg: ExperimentConfig, out: Path) -> int:
    train, test = build_dataset(cfg.dataset)
    for seed in args.seeds:
        rows = alengine.train_joint(train, build_run_config(cfg, cfg.pilot, seed), cycle=0,
                                    test=test).kl_rows
        save_kl_csv(out / f"kl_seed{seed}.csv", rows)
        last = rows[-1]
        print(
            f"kl-analysis seed={seed} final epoch {last[0]}:"
            f" module={last[1]:.6f} snapshot={last[2]:.6f}"
        )
    return 0


def _run_theory_sde(args: argparse.Namespace, cfg: ExperimentConfig, out: Path) -> int:
    th = cfg.theory
    # The ODE first, so that a diverging ODE stops the run before any file is written.
    _, ode = theorysim.integrate_ode(th, th.dt, th.t_end)
    # All seeds in one step loop; a non-finite seed raises after its predecessors are written.
    for seed, traj in zip(args.seeds, theorysim.simulate_seeds(th, args.seeds)):
        theorysim.save_trajectory_csv(out / f"trajectory_sde_seed{seed}.csv", traj)
    theorysim.save_trajectory_csv(out / "trajectory_ode.csv", ode)
    gap = theorysim.convergence_gap(ode)
    print(f"theory-sde: ODE gap at t_end={th.t_end}: {gap[-1]:.6f}")
    return 0


def _run_theory_closed_form(args: argparse.Namespace, cfg: ExperimentConfig, out: Path) -> int:
    th = cfg.theory
    rows = [
        (float(s_y), int(C), theorysim.theorem2_entropy(s_y, C), theorysim.theorem2_margin(s_y, C))
        for C in th.classes for s_y in th.sy_values
    ]
    write_csv(out / "closed_form.csv", ["s_y", "n_classes", "entropy", "margin"], rows)
    print(f"theory-closed-form: wrote {len(th.classes) * len(th.sy_values)} grid rows")
    return 0


def _run_gen_data(args: argparse.Namespace, cfg: ExperimentConfig, out: Path) -> int:
    train, test = build_dataset(cfg.dataset)
    save_csv(train, out / "data_train.csv")
    save_csv(test, out / "data_test.csv")
    print(f"gen-data: {len(train)} train / {len(test)} test samples written")
    return 0


_COMMANDS = {
    "al-run": _run_al,
    "pilot": _run_pilot,
    "kl-analysis": _run_kl,
    "theory-sde": _run_theory_sde,
    "theory-closed-form": _run_theory_closed_form,
    "gen-data": _run_gen_data,
}


def _distinct_values(kind: str, text: str, parse) -> list:
    """The comma-separated values of ``text``, blanks dropped; ValueError
    for an empty list or a repeated value."""
    values = [parse(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"at least one {kind} is required")
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"repeated {kind} {v}")
    return values


def main(argv=None) -> int:
    """The command line's one entry: parses argv and the config once, checks
    the seeds, strategies, ``--jobs`` and that ``--out`` can be made, then
    runs the command, whose first write makes ``--out``.  Returns the exit
    code: 2 for bad input, before anything is written, and 1 for a training or
    simulation that diverges, or an al-run run that fails (the others' files stay)."""
    parser = argparse.ArgumentParser(
        prog="dynal", description="Training-dynamics active-learning workbench"
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="YAML config path")
    parser.add_argument("--out", required=True,
                        help="output directory for CSV artifacts, made at the first write")
    parser.add_argument("--seeds", default="0", help="comma-separated seed list")
    parser.add_argument("--strategies", default=None, help="comma-separated strategy list")
    parser.add_argument("--jobs", type=int, default=1, help="al-run: seeds run in parallel")
    parser.add_argument(
        "--analysis", action="store_true",
        help="al-run: write per-cycle KL CSVs from per-epoch test-set snapshots"
    )
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        args.seeds = _distinct_values("seed", args.seeds, int)
        for seed in args.seeds:
            if seed < 0:
                raise ValueError(f"seed {seed} must be non-negative")
        args.strategies = (_distinct_values("strategy", args.strategies, str.strip)
                           if args.strategies is not None else [cfg.al.strategy])
        for s in args.strategies:
            StrategyKind(s)
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        out = Path(args.out)
        # Fail before any work if the first write could not make --out.
        near = next(p for p in (out, *out.parents) if os.path.lexists(p))
        if not near.is_dir() or not os.access(near, os.W_OK | os.X_OK):
            raise ValueError(f"--out {out}: {near} is not a writable directory")
        return _COMMANDS[args.command](args, cfg, out)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, FloatingPointError) else 2


if __name__ == "__main__":
    sys.exit(main())
