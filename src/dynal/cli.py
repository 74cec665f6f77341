"""Command-line front end: YAML configs in, CSV artifacts out.

Commands
--------
al-run             seeds x strategies active-learning runs + summary CSV
pilot              imbalanced major/minor separation study (score dump + AUROC)
kl-analysis        per-epoch divergence of head prediction vs snapshot
theory-sde         stochastic elasticity simulation + averaged ODE trajectories
theory-closed-form closed-form entropy/margin over an s_y grid
gen-data           generate and save the configured dataset

All artifacts are plain CSV with headers; re-running an identical
manifest rewrites byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import alengine, theorysim
from .alengine import ALConfig, save_kl_csv, save_results_csv
from .datasets import Dataset, DatasetSpec, ImbalanceSpec, build_dataset, minor_class_set, save_csv
from .estimators import StrategyKind, save_scores_csv
from .netcore import NetConfig, OptimizerConfig
from .theorysim import ElasticityParams

DEFAULT_SY_GRID = [round(0.55 + 0.05 * i, 2) for i in range(9)]


@dataclass
class NetSection:
    hidden_sizes: list[int] = field(default_factory=lambda: [32, 32])
    activation: str = "relu"
    tap_layers: list[int] = field(default_factory=lambda: [0, 1])


@dataclass
class HeadSection:
    reduce_dim: int = 16


@dataclass
class ALSection:
    strategy: str = "random"
    initial_labeled: int = 20
    budget_per_cycle: int = 20
    n_cycles: int = 5
    subset_size: int = 200
    epochs: int = 60
    batch_size: int = 32
    lam: float = 1.0
    detach: bool = False
    record_probs: str = "batch"
    dump_scores: bool = False


@dataclass
class TheorySection:
    n_1e: int = 10
    n_1h: int = 10
    n_2: int = 10
    alpha_e: float = 1.0
    alpha_h: float = 0.5
    beta: float = 0.1
    step_size: float = 1e-3
    noise: float = 0.0
    x0: list[float] = field(default_factory=lambda: [1.0, 1.0, 1.0])
    iterations: int = 1000
    n_runs: int = 200
    dt: float = 1e-3
    t_end: float = 5.0
    sy_values: list[float] = field(default_factory=lambda: list(DEFAULT_SY_GRID))
    classes: list[int] = field(default_factory=lambda: [2, 3, 10, 100])

    def elasticity_params(self, seed: int) -> ElasticityParams:
        return ElasticityParams(
            n_1e=self.n_1e,
            n_1h=self.n_1h,
            n_2=self.n_2,
            alpha_e=self.alpha_e,
            alpha_h=self.alpha_h,
            beta=self.beta,
            step_size=self.step_size,
            noise=self.noise,
            x0=tuple(self.x0),
            iterations=self.iterations,
            seed=seed,
        )


@dataclass
class PilotSection:
    epochs: int = 30
    batch_size: int = 32
    lam: float = 1.0


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    net: NetSection = field(default_factory=NetSection)
    head: HeadSection = field(default_factory=HeadSection)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    al: ALSection = field(default_factory=ALSection)
    theory: TheorySection = field(default_factory=TheorySection)
    pilot: PilotSection = field(default_factory=PilotSection)


_SECTION_CLASSES = {
    "dataset": DatasetSpec,
    "net": NetSection,
    "head": HeadSection,
    "optimizer": OptimizerConfig,
    "al": ALSection,
    "theory": TheorySection,
    "pilot": PilotSection,
}


def _build_section(cls, mapping: dict, path: str):
    """Instantiate a dataclass from a mapping, rejecting unknown keys."""
    if not isinstance(mapping, dict):
        raise ValueError(f"config section '{path}' must be a mapping")
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in mapping.items():
        if key not in known:
            raise ValueError(f"unknown config key '{path}.{key}'")
        if key == "imbalance" and isinstance(value, dict):
            value = _build_section(ImbalanceSpec, value, f"{path}.{key}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ValueError(f"invalid config section '{path}': {e}") from None


def parse_config(path) -> ExperimentConfig:
    """Load and validate a YAML experiment config; defaults fill gaps."""
    with open(path) as f:
        raw = yaml.safe_load(f)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: top level must be a mapping")
    sections = {}
    for key, value in raw.items():
        if key not in _SECTION_CLASSES:
            raise ValueError(f"unknown config key '{key}'")
        sections[key] = _build_section(_SECTION_CLASSES[key], value, key)
    return ExperimentConfig(**sections)


def serialize_config(cfg: ExperimentConfig) -> str:
    """YAML text whose parse equals cfg (round-trip stable)."""
    return yaml.safe_dump(dataclasses.asdict(cfg), sort_keys=True)


def build_al_config(cfg: ExperimentConfig, train: Dataset, strategy: str, seed: int,
                    analysis: bool = False) -> ALConfig:
    net = NetConfig(
        input_dim=train.dim,
        hidden_sizes=list(cfg.net.hidden_sizes),
        n_classes=train.n_classes,
        tap_layers=list(cfg.net.tap_layers),
        activation=cfg.net.activation,
        seed=0,
    )
    return ALConfig(**{
        **dataclasses.asdict(cfg.al),
        "net": net,
        "opt": cfg.optimizer,
        "strategy": StrategyKind.from_string(strategy),
        "head_reduce_dim": cfg.head.reduce_dim,
        "analysis": analysis,
        "seed": seed,
    })


def build_pilot_config(cfg: ExperimentConfig, train: Dataset, seed: int,
                       analysis: bool = False) -> ALConfig:
    al_cfg = build_al_config(cfg, train, "random", seed, analysis=analysis)
    return dataclasses.replace(
        al_cfg, epochs=cfg.pilot.epochs, batch_size=cfg.pilot.batch_size, lam=cfg.pilot.lam
    )


@dataclass
class RunManifest:
    command: str
    config_path: str
    out_dir: str
    seeds: list[int]
    strategies: list[str]
    jobs: int = 1
    analysis: bool = False

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.jobs < 1:
            raise ValueError("--jobs must be >= 1")


def _al_worker(args):
    """One (strategy, seed) active-learning run; returns summary rows."""
    train, test, al_cfg, minor, out_dir = args
    strategy = al_cfg.strategy.value
    reports = alengine.run_experiment(train, test, al_cfg, minor_classes=minor)
    rows = [(strategy, al_cfg.seed, rep) for rep in reports]
    save_results_csv(Path(out_dir) / f"results_{strategy}_seed{al_cfg.seed}.csv", rows)
    for rep in reports:
        if rep.score_rows is not None:
            save_scores_csv(
                Path(out_dir) / f"scores_{strategy}_seed{al_cfg.seed}_cycle{rep.cycle}.csv",
                rep.score_rows,
            )
        if rep.kl_rows is not None:
            save_kl_csv(
                Path(out_dir) / f"kl_{strategy}_seed{al_cfg.seed}_cycle{rep.cycle}.csv",
                rep.kl_rows,
            )
    return rows


def _run_al(manifest: RunManifest, cfg: ExperimentConfig, out: Path) -> int:
    train, test = build_dataset(cfg.dataset)
    minor = minor_class_set(cfg.dataset)
    jobs = []
    for strategy in manifest.strategies:
        for seed in manifest.seeds:
            al_cfg = build_al_config(cfg, train, strategy, seed, analysis=manifest.analysis)
            jobs.append((train, test, al_cfg, minor, str(out)))

    failures = []
    all_rows: list = []
    # One job runs in this process; more run in a pool of that many processes.
    with ProcessPoolExecutor(manifest.jobs) if manifest.jobs > 1 else nullcontext() as pool:
        futures = [pool.submit(_al_worker, job) if pool else None for job in jobs]
        for job, fut in zip(jobs, futures):
            try:
                all_rows.extend(_al_worker(job) if fut is None else fut.result())
            except Exception:
                failures.append(f"{job[2].strategy.value}-seed{job[2].seed}")
                traceback.print_exc()
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


def _run_pilot(manifest: RunManifest, cfg: ExperimentConfig, out: Path) -> int:
    train, test = build_dataset(cfg.dataset)
    minor = minor_class_set(cfg.dataset)
    if not minor:
        raise ValueError("pilot needs an imbalanced dataset (imbalance.ratio > 1)")
    auroc_rows = []
    for seed in manifest.seeds:
        al_cfg = build_pilot_config(cfg, train, seed)
        pilot = alengine.run_pilot(train, al_cfg, minor)
        rows = []
        for name, vals in pilot.scores.items():
            for sid, s, lbl in zip(pilot.sample_ids, vals, pilot.snapshot_labels):
                rows.append((int(sid), name, float(s), int(lbl), False))
        save_scores_csv(out / f"scores_pilot_seed{seed}.csv", rows)
        for name, a in pilot.auroc.items():
            auroc_rows.append((name, seed, a))
            print(f"pilot seed={seed} {name}: separation AUROC = {a:.4f}")
    with open(out / "pilot_auroc.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["estimator", "seed", "auroc"])
        for name, seed, a in auroc_rows:
            w.writerow([name, seed, repr(float(a))])
    return 0


def _run_kl(manifest: RunManifest, cfg: ExperimentConfig, out: Path) -> int:
    train, test = build_dataset(cfg.dataset)
    for seed in manifest.seeds:
        al_cfg = build_pilot_config(cfg, train, seed, analysis=True)
        result = alengine.train_joint(train, al_cfg, cycle=0, test=test)
        rows = alengine.kl_analysis(result)
        save_kl_csv(out / f"kl_seed{seed}.csv", rows)
        last = rows[-1]
        print(
            f"kl-analysis seed={seed} final epoch {last[0]}:"
            f" module={last[1]:.6f} snapshot={last[2]:.6f}"
        )
    return 0


def _run_theory_sde(manifest: RunManifest, cfg: ExperimentConfig, out: Path) -> int:
    th = cfg.theory
    for seed in manifest.seeds:
        params = th.elasticity_params(seed)
        traj = theorysim.simulate_discrete(params)
        theorysim.save_trajectory_csv(out / f"trajectory_sde_seed{seed}.csv", traj)
    params = th.elasticity_params(manifest.seeds[0])
    _, ode = theorysim.integrate_ode(params, th.dt, th.t_end)
    theorysim.save_trajectory_csv(out / "trajectory_ode.csv", ode)
    gap = theorysim.convergence_gap(ode)
    print(f"theory-sde: ODE gap at t_end={th.t_end}: {gap[-1]:.6f}")
    return 0


def _run_theory_closed_form(manifest: RunManifest, cfg: ExperimentConfig, out: Path) -> int:
    th = cfg.theory
    with open(out / "closed_form.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["s_y", "n_classes", "entropy", "margin"])
        for C in th.classes:
            for s_y in th.sy_values:
                w.writerow(
                    [
                        repr(float(s_y)),
                        int(C),
                        repr(theorysim.theorem2_entropy(s_y, C)),
                        repr(theorysim.theorem2_margin(s_y, C)),
                    ]
                )
    print(f"theory-closed-form: wrote {len(th.classes) * len(th.sy_values)} grid rows")
    return 0


def _run_gen_data(manifest: RunManifest, cfg: ExperimentConfig, out: Path) -> int:
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


def dispatch(manifest: RunManifest, cfg: ExperimentConfig | None = None) -> int:
    """Execute a manifest; returns a process exit code.  ``cfg`` is the
    manifest's config when the caller has already parsed it."""
    if manifest.command not in _COMMANDS:
        raise ValueError(f"unknown command {manifest.command!r}")
    if cfg is None:
        cfg = parse_config(manifest.config_path)
    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[manifest.command](manifest, cfg, out)


def _parse_int_list(s: str) -> list[int]:
    return [int(tok) for tok in s.split(",") if tok.strip() != ""]


def _parse_str_list(s: str) -> list[str]:
    return [tok.strip() for tok in s.split(",") if tok.strip() != ""]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dynal", description="Training-dynamics active-learning workbench"
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="YAML config path")
    parser.add_argument("--out", required=True, help="output directory for CSV artifacts")
    parser.add_argument("--seeds", default="0", help="comma-separated seed list")
    parser.add_argument("--strategies", default=None, help="comma-separated strategy list")
    parser.add_argument("--jobs", type=int, default=1, help="concurrent runs")
    parser.add_argument(
        "--analysis", action="store_true", help="retain per-epoch snapshots for KL analysis"
    )
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        strategies = (
            _parse_str_list(args.strategies) if args.strategies else [cfg.al.strategy]
        )
        for s in strategies:
            StrategyKind.from_string(s)
        manifest = RunManifest(
            command=args.command,
            config_path=args.config,
            out_dir=args.out,
            seeds=_parse_int_list(args.seeds),
            strategies=strategies,
            jobs=args.jobs,
            analysis=args.analysis,
        )
        return dispatch(manifest, cfg)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
