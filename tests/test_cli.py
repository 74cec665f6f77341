import ast
import csv
import dataclasses
import multiprocessing
import os
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

import dynal
from dynal import alengine, cli, theorysim
from dynal.cli import ExperimentConfig, main, parse_config, serialize_config
from dynal.datasets import (GENERATORS, IMBALANCE_PROFILES, DatasetSpec, gen_gaussian_mixture,
                            load_csv, save_csv)
from dynal.estimators import StrategyKind
from dynal.netcore import ACTIVATIONS, OPTIMIZER_KINDS, NetConfig, OptimizerConfig
from dynal.tdhead import HeadConfig
from dynal.theorysim import ElasticityParams

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SMALL_CFG = """
dataset:
  generator: gaussian_mixture
  n_classes: 3
  dim: 5
  per_class: 40
  radius: 3.5
  noise: 0.8
  test_fraction: 0.25
  seed: 4
net:
  hidden_sizes: [12, 12]
  tap_layers: [0, 1]
optimizer:
  kind: sgd_momentum
  initial_lr: 0.05
  decay_epoch: 8
al:
  initial_labeled: 9
  budget_per_cycle: 6
  n_cycles: 2
  subset_size: 20
  epochs: 10
  batch_size: 16
theory:
  iterations: 200
  t_end: 1.0
"""

PILOT_CFG = """
dataset:
  generator: gaussian_mixture
  n_classes: 4
  dim: 8
  per_class: 48
  radius: 3.0
  noise: 1.0
  test_fraction: 0.25
  seed: 11
  imbalance:
    ratio: 6
    profile: step
    minor_classes: [2, 3]
net:
  hidden_sizes: [16, 16]
  tap_layers: [0, 1]
optimizer:
  kind: adam
  initial_lr: 0.005
  weight_decay: 0.0
  decay_epoch: 100000
  decay_factor: 1.0
pilot:
  epochs: 8
"""


@pytest.fixture
def small_config(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(SMALL_CFG)
    return p


@pytest.fixture
def pilot_config(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(PILOT_CFG)
    return p


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        p = tmp_path / "m.yaml"
        p.write_text("dataset:\n  n_classes: 5\nal:\n  strategy: tidal_entropy\n")
        cfg = parse_config(p)
        assert cfg.dataset.n_classes == 5
        assert cfg.al.strategy == "tidal_entropy"
        assert cfg.al.epochs == 60
        assert cfg.optimizer.decay_epoch == 48
        assert cfg.optimizer.decay_factor == 0.1
        assert cfg.al.batch_size == 32
        assert cfg.al.lam == 1.0
        assert cfg.net == NetConfig(hidden_sizes=[32, 32], activation="relu", tap_layers=[0, 1])

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("dataset:\n  n_classez: 5\n")
        with pytest.raises(ValueError, match="dataset.n_classez"):
            parse_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("nope:\n  a: 1\n")
        with pytest.raises(ValueError, match="nope"):
            parse_config(p)

    def test_theory_constraint_violation_named(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("theory:\n  alpha_e: 0.2\n  alpha_h: 0.9\n")
        with pytest.raises(ValueError, match="alpha_e > alpha_h > beta"):
            parse_config(p)

    def test_elasticity_params_take_every_theory_field(self, tmp_path):
        p = tmp_path / "th.yaml"
        p.write_text("theory:\n  n_1e: 3\n  n_1h: 4\n  n_2: 5\n  alpha_e: 2.0\n  alpha_h: 1.0\n"
                     "  beta: 0.5\n  step_size: 0.01\n  noise: 0.2\n  x0: [1, 2, 3]\n"
                     "  iterations: 7\n")
        params = parse_config(p).theory.elasticity_params(seed=9)
        assert params == ElasticityParams(3, 4, 5, 2.0, 1.0, 0.5, 0.01, 0.2, [1, 2, 3], 7, 9)

    @pytest.mark.parametrize("text, key", [
        ("al:\n  epochs: '60'\n", "al.epochs"),
        ("al:\n  epochs: 60.0\n", "al.epochs"),
        ("al:\n  lam: true\n", "al.lam"),
        ("al:\n  dump_scores: 1\n", "al.dump_scores"),
        ("dataset:\n  imbalance: 5\n", "dataset.imbalance"),
        ("dataset:\n  imbalance:\n    minor_classes: [2, 2.5]\n",
         r"dataset\.imbalance\.minor_classes\[1\]"),
        ("net:\n  hidden_sizes: [32, '8']\n", r"net\.hidden_sizes\[1\]"),
        ("theory:\n  x0: 1.0\n", "theory.x0"),
    ])
    def test_value_of_wrong_type_names_its_key(self, tmp_path, text, key):
        p = tmp_path / "bad.yaml"
        p.write_text(text)
        with pytest.raises(ValueError, match=key):
            parse_config(p)

    def test_ints_pass_as_floats_and_null_as_none(self, tmp_path):
        p = tmp_path / "ok.yaml"
        p.write_text("al:\n  lam: 2\ntheory:\n  x0: [1, 2, 3]\ndataset:\n  csv_path: null\n")
        cfg = parse_config(p)
        assert cfg.al.lam == 2 and cfg.theory.x0 == [1, 2, 3] and cfg.dataset.csv_path is None

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.name)
    def test_shipped_configs_parse(self, path, tmp_path):
        cfg = parse_config(path)
        p2 = tmp_path / "round.yaml"
        p2.write_text(serialize_config(cfg))
        assert parse_config(p2) == cfg

    def test_section_key_sets(self, tmp_path):
        """The keys each YAML section accepts; a default config round-trips."""
        default = yaml.safe_load(serialize_config(ExperimentConfig()))
        keys = {name: set(section) for name, section in default.items()}
        keys["dataset.imbalance"] = set(default["dataset"]["imbalance"])
        assert keys == {
            "dataset": {"generator", "n_classes", "dim", "per_class", "radius", "noise",
                        "imbalance", "test_fraction", "seed", "csv_path"},
            "dataset.imbalance": {"ratio", "profile", "minor_classes"},
            "net": {"hidden_sizes", "activation", "tap_layers"},
            "head": {"reduce_dim"},
            "optimizer": {"kind", "initial_lr", "momentum", "weight_decay", "beta1", "beta2",
                          "epsilon", "decay_epoch", "decay_factor"},
            "al": {"strategy", "initial_labeled", "budget_per_cycle", "n_cycles", "subset_size",
                   "epochs", "batch_size", "lam", "dump_scores"},
            "theory": {"n_1e", "n_1h", "n_2", "alpha_e", "alpha_h", "beta", "step_size", "noise",
                       "x0", "iterations", "n_runs", "dt", "t_end", "sy_values", "classes"},
            "pilot": {"epochs", "batch_size", "lam"},
        }
        p = tmp_path / "default.yaml"
        p.write_text(serialize_config(ExperimentConfig()))
        assert parse_config(p) == ExperimentConfig()

    @pytest.mark.parametrize("key", ["seed", "net", "opt", "head", "head_reduce_dim", "analysis"])
    def test_run_settings_are_not_al_keys(self, tmp_path, key):
        p = tmp_path / "bad.yaml"
        p.write_text(f"al:\n  {key}: 1\n")
        with pytest.raises(ValueError, match=f"unknown config key 'al.{key}'"):
            parse_config(p)

    @pytest.mark.parametrize("key, value", [("detach", "true"), ("record_probs", "epoch_end")])
    def test_removed_training_variants_exit_2(self, tmp_path, capsys, key, value):
        p = tmp_path / "bad.yaml"
        p.write_text(f"al:\n  {key}: {value}\n")
        assert main(["pilot", "--config", str(p), "--out", str(tmp_path / "x")]) == 2
        assert f"unknown config key 'al.{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("initial_lr", ".inf"), ("weight_decay", ".nan"), ("beta1", "1.0"), ("beta2", "1"),
        ("epsilon", "0.0"), ("epsilon", ".inf"),
    ])
    def test_bad_optimizer_value_exits_2_naming_the_section(self, tmp_path, capsys, key, value):
        p = tmp_path / "bad.yaml"
        p.write_text(f"optimizer:\n  {key}: {value}\n")
        out = tmp_path / "x"
        assert main(["al-run", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid config section 'optimizer'" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("command, section, key, value", [
        ("al-run", "al", "lam", float("nan")),
        ("pilot", "pilot", "lam", float("inf")),
        ("al-run", "dataset", "noise", float("nan")),
        ("pilot", "dataset.imbalance", "ratio", float("nan")),
        ("theory-sde", "theory", "step_size", float("inf")),
        ("theory-sde", "theory", "noise", float("nan")),
        ("theory-sde", "theory", "x0", [float("nan"), 1.0, 1.0]),
        ("theory-sde", "theory", "dt", float("nan")),
        ("theory-sde", "theory", "t_end", float("inf")),
        # Out of range though finite: an empty tap list and a zero-width head.
        ("al-run", "net", "tap_layers", []),
        ("al-run", "head", "reduce_dim", 0),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, command, section, key, value):
        raw = yaml.safe_load(PILOT_CFG if command == "pilot" else SMALL_CFG)
        node = raw
        for part in section.split("."):
            node = node.setdefault(part, {})
        node[key] = value  # dumped as .nan / .inf
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(raw))
        out = tmp_path / "x"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_round_trip(self, small_config, tmp_path):
        cfg = parse_config(small_config)
        p2 = tmp_path / "round.yaml"
        p2.write_text(serialize_config(cfg))
        assert parse_config(p2) == cfg


class TestBuilders:
    """The run configs that commands build from a parsed config."""

    def test_pilot_config_of_an_empty_config(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        cfg = parse_config(p)
        run = cli.build_pilot_config(cfg, seed=7)
        assert (run.epochs, run.batch_size, run.lam, run.seed) == (30, 32, 1.0, 7)
        assert run.net is cfg.net and run.head is cfg.head and run.opt is cfg.optimizer
        assert (run.net, run.head, run.opt) == (NetConfig(), HeadConfig(), OptimizerConfig())

    def test_al_config_carries_the_al_section_whole(self, small_config):
        cfg = parse_config(small_config)
        run = cli.build_al_config(cfg, seed=3, analysis=True)
        for f in dataclasses.fields(alengine.ALProtocol):
            assert getattr(run, f.name) == getattr(cfg.al, f.name), f.name
        assert (run.analysis, run.seed) == (True, 3)
        assert run.net is cfg.net and run.head is cfg.head and run.opt is cfg.optimizer

    def test_ode_of_the_section_is_the_ode_of_its_params(self, small_config):
        th = parse_config(small_config).theory
        times, ode = theorysim.integrate_ode(th, th.dt, th.t_end)
        for seed in (0, 5):
            t_p, ode_p = theorysim.integrate_ode(th.elasticity_params(seed), th.dt, th.t_end)
            assert times.tobytes() == t_p.tobytes() and ode.tobytes() == ode_p.tobytes()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_bad_theory_model_exits_2_for_every_command(self, small_config, tmp_path, capsys,
                                                        command):
        small_config.write_text(SMALL_CFG + "  alpha_e: 0.2\n  alpha_h: 0.9\n")
        out = tmp_path / "x"
        assert main([command, "--config", str(small_config), "--out", str(out)]) == 2
        assert ("invalid config section 'theory': elasticities must satisfy"
                in capsys.readouterr().err)
        assert not out.exists()


# Fields whose values the section classes check, drawn from their valid sets.
FIELD_VALUES = {
    "generator": st.sampled_from(GENERATORS),
    "profile": st.sampled_from(IMBALANCE_PROFILES),
    "kind": st.sampled_from(OPTIMIZER_KINDS),
    "activation": st.sampled_from(ACTIVATIONS),
    "strategy": st.sampled_from([k.value for k in StrategyKind]),
    "n_classes": st.integers(2, 10**6),
    "per_class": st.integers(1, 10**6),
    "test_fraction": st.floats(0, 1, exclude_min=True, exclude_max=True),
    "momentum": st.floats(0, 1, exclude_max=True),
    "decay_factor": st.floats(0, 1, exclude_min=True),
    "ratio": st.floats(1, 1e300),
    "initial_lr": st.floats(1e-300, 1e300),
    "weight_decay": st.floats(0, 1e300),
    "beta1": st.floats(0, 1, exclude_max=True),
    "beta2": st.floats(0, 1, exclude_max=True),
    "epsilon": st.floats(1e-300, 1e300),
    "radius": st.floats(allow_nan=False, allow_infinity=False),
    "noise": st.floats(allow_nan=False, allow_infinity=False),
}


def values_of(hint, name):
    """Values of a config field: its valid set if checked, else any of its type."""
    if dataclasses.is_dataclass(hint):
        return sections(hint)
    if name in FIELD_VALUES:
        return FIELD_VALUES[name]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return st.none() | values_of(args[0], name)
    if origin is list:
        return st.lists(values_of(args[0], name), max_size=4)
    return {bool: st.booleans(), int: st.integers(), str: st.text(),
            float: st.floats(allow_nan=False)}[hint]


@st.composite
def sections(draw, cls):
    """A config section with a random subset of its fields drawn, the rest default."""
    hints = typing.get_type_hints(cls)
    kwargs = {f.name: draw(values_of(hints[f.name], f.name))
              for f in dataclasses.fields(cls) if draw(st.booleans())}
    try:
        return cls(**kwargs)
    except ValueError:  # e.g. minor_classes drawn under the exponential profile
        reject()


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=sections(ExperimentConfig))
def test_parse_of_serialize_is_identity(tmp_path, cfg):
    p = tmp_path / "round.yaml"
    p.write_text(serialize_config(cfg), encoding="utf-8")
    assert parse_config(p) == cfg


class TestDispatch:
    """Each command run through ``main``, its artifacts checked."""

    def test_al_run_writes_expected_files(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["al-run", "--config", str(small_config), "--out", str(out),
                     "--seeds", "0,1", "--strategies", "random,snapshot_entropy"]) == 0
        files = sorted(f.name for f in out.iterdir())
        assert files == [
            "results_random_seed0.csv",
            "results_random_seed1.csv",
            "results_snapshot_entropy_seed0.csv",
            "results_snapshot_entropy_seed1.csv",
            "summary.csv",
        ]
        with open(out / "summary.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 8  # 2 strategies x 2 seeds x 2 cycles
        assert float(rows[0]["test_accuracy"]) <= 1.0

    def test_rerun_is_byte_identical(self, small_config, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert main(["al-run", "--config", str(small_config), "--out", str(out),
                         "--seeds", "0", "--strategies", "tidal_margin"]) == 0
        for f1 in sorted(out1.iterdir()):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes()

    def test_jobs_parallel_matches_sequential(self, tmp_path):
        config = tmp_path / "cfg.yaml"
        config.write_text(SMALL_CFG.replace("al:\n", "al:\n  dump_scores: true\n"))
        strategies = ["random", "snapshot_entropy", "coreset", "tidal_entropy", "tidal_margin",
                      "tidal_prob_naive"]
        seq, par = tmp_path / "seq", tmp_path / "par"
        for out, jobs in ((seq, 1), (par, 2)):
            assert main(["al-run", "--config", str(config), "--out", str(out), "--seeds", "0,1,2",
                         "--strategies", ",".join(strategies), "--jobs", str(jobs),
                         "--analysis"]) == 0
        files = sorted(f.name for f in seq.iterdir())
        assert files == sorted(f.name for f in par.iterdir())
        assert len(files) == 1 + 6 * 3 + 4 * 3 * 2 + 6 * 3 * 2  # summary, results, scores, kl
        for name in files:
            assert (seq / name).read_bytes() == (par / name).read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_strategy_leaves_its_seed_group(self, small_config, tmp_path, capsys,
                                                    monkeypatch, jobs):
        """A run that raises writes nothing and is named on stderr with its
        traceback; the other strategies of its seed finish and are written."""
        if jobs > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patch reaches pool workers only when they are forked")
        args = ["al-run", "--config", str(small_config), "--seeds", "0,1"]
        clean = tmp_path / "clean"
        assert main(args + ["--out", str(clean), "--strategies", "random,snapshot_entropy"]) == 0
        capsys.readouterr()
        scores = alengine.strategy_scores

        def fail_tidal(kind, *a):
            if kind is StrategyKind.TIDAL_MARGIN:
                raise RuntimeError("tidal scoring failed")
            return scores(kind, *a)

        monkeypatch.setattr(alengine, "strategy_scores", fail_tidal)
        out = tmp_path / "out"
        code = main(args + ["--out", str(out), "--jobs", str(jobs),
                            "--strategies", "random,tidal_margin,snapshot_entropy"])
        err = capsys.readouterr().err
        assert code == 1
        assert "FAILED runs: tidal_margin-seed0, tidal_margin-seed1" in err
        assert err.count("RuntimeError: tidal scoring failed") == 2
        assert not list(out.glob("results_tidal_margin_*"))
        for name in ("results_random_seed0.csv", "results_random_seed1.csv",
                     "results_snapshot_entropy_seed0.csv", "results_snapshot_entropy_seed1.csv"):
            assert (out / name).read_bytes() == (clean / name).read_bytes()

    def test_pilot_writes_scores_and_auroc(self, pilot_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["pilot", "--config", str(pilot_config), "--out", str(out),
                     "--seeds", "0", "--strategies", "random"]) == 0
        assert (out / "scores_pilot_seed0.csv").exists()
        assert (out / "pilot_auroc.csv").exists()
        printed = capsys.readouterr().out
        assert "separation AUROC" in printed
        with open(out / "scores_pilot_seed0.csv") as f:
            rows = list(csv.DictReader(f))
        assert set(r["strategy"] for r in rows) == {
            "snapshot_entropy", "td_entropy", "pred_td_entropy",
            "snapshot_margin", "td_margin", "pred_td_margin",
        }

    def test_kl_analysis_csv(self, pilot_config, tmp_path):
        out = tmp_path / "out"
        assert main(["kl-analysis", "--config", str(pilot_config), "--out", str(out),
                     "--seeds", "0", "--strategies", "random", "--analysis"]) == 0
        with open(out / "kl_seed0.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 8  # pilot epochs
        assert all(float(r["kl_module"]) >= 0 for r in rows)

    def test_al_run_analysis_writes_kl_csv_per_cycle(self, small_config, tmp_path):
        plain, traced = tmp_path / "plain", tmp_path / "traced"
        args = ["al-run", "--config", str(small_config), "--seeds", "0,1",
                "--strategies", "random,tidal_entropy"]
        assert main(args + ["--out", str(plain)]) == 0
        assert main(args + ["--out", str(traced), "--analysis"]) == 0
        assert not list(plain.glob("kl_*"))
        expected = {f"kl_{s}_seed{k}_cycle{c}.csv" for s in ("random", "tidal_entropy")
                    for k in (0, 1) for c in (1, 2)}
        assert {f.name for f in traced.glob("kl_*")} == expected
        for name in expected:
            with open(traced / name) as f:
                rows = list(csv.reader(f))
            assert rows[0] == ["epoch", "kl_module", "kl_snapshot"]
            assert [int(r[0]) for r in rows[1:]] == list(range(1, 11))  # al.epochs
        # the trace is read-only: every other artifact is unchanged
        for f in plain.iterdir():
            assert f.read_bytes() == (traced / f.name).read_bytes()

    @pytest.mark.parametrize("command", ["pilot", "kl-analysis"])
    def test_al_section_does_not_reach_pilot_runs(self, tmp_path, command):
        """The pilot trains with its own epochs, batch size and lam; no
        key of the ``al:`` section changes its artifacts, and an ``al:``
        section that ALConfig would reject is not checked."""
        al_sections = {
            "varied": "al:\n  strategy: tidal_entropy\n  initial_labeled: 5\n"
                      "  budget_per_cycle: 3\n  n_cycles: 1\n  subset_size: 7\n"
                      "  epochs: 2\n  batch_size: 7\n  lam: 0.25\n  dump_scores: true\n",
            "invalid": "al:\n  subset_size: 5\n  budget_per_cycle: 10\n",
        }
        outs = []
        for label, al in {"base": "", **al_sections}.items():
            cfg, out = tmp_path / f"{label}.yaml", tmp_path / label
            cfg.write_text(PILOT_CFG + al)
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        files = sorted(f.name for f in outs[0].iterdir())
        for other in outs[1:]:
            assert files == sorted(f.name for f in other.iterdir())
            for name in files:
                assert (outs[0] / name).read_bytes() == (other / name).read_bytes()

    def test_theory_sde_trajectories(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["theory-sde", "--config", str(small_config), "--out", str(out),
                     "--seeds", "0", "--strategies", "random"]) == 0
        with open(out / "trajectory_sde_seed0.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 201  # iterations + 1
        with open(out / "trajectory_ode.csv") as f:
            ode_rows = list(csv.DictReader(f))
        assert len(ode_rows) == 1001  # t_end / dt + 1

    def test_theory_closed_form_matches_library(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["theory-closed-form", "--config", str(small_config), "--out", str(out),
                     "--seeds", "0", "--strategies", "random"]) == 0
        with open(out / "closed_form.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 9 * 4
        for r in rows:
            s, C = float(r["s_y"]), int(r["n_classes"])
            assert float(r["entropy"]) == pytest.approx(
                theorysim.theorem2_entropy(s, C), abs=1e-12)
            assert float(r["margin"]) == pytest.approx(
                theorysim.theorem2_margin(s, C), abs=1e-12)

    def test_gen_data_round_trips(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(small_config), "--out", str(out),
                     "--seeds", "0", "--strategies", "random"]) == 0
        train = load_csv(out / "data_train.csv")
        test = load_csv(out / "data_test.csv")
        assert len(train) == 90
        assert len(test) == 30
        assert not set(train.ids.tolist()) & set(test.ids.tolist())

    def test_score_dump_parseable(self, tmp_path):
        cfg_text = SMALL_CFG + "\n"
        p = tmp_path / "cfg.yaml"
        p.write_text(cfg_text.replace("al:", "al:\n  dump_scores: true"))
        out = tmp_path / "out"
        assert main(["al-run", "--config", str(p), "--out", str(out),
                     "--seeds", "0", "--strategies", "tidal_entropy"]) == 0
        score_files = sorted(out.glob("scores_*.csv"))
        assert len(score_files) == 2  # one per cycle
        with open(score_files[0]) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 20  # subset size
        assert sum(int(r["selected"]) for r in rows) == 6


class TestCsvDataset:
    """Minor classes of a CSV dataset come from its labels, not from the
    spec's default ``n_classes`` (10)."""

    CFG = """
dataset:
  generator: csv_file
  csv_path: {path}
  test_fraction: 0.25
  seed: 3
  imbalance:
    ratio: 4
    profile: step
net:
  hidden_sizes: [8]
  tap_layers: [0]
al:
  initial_labeled: 8
  budget_per_cycle: 4
  n_cycles: 1
  subset_size: 12
  epochs: 3
  batch_size: 8
pilot:
  epochs: 3
"""

    @pytest.fixture
    def csv_config(self, tmp_path):
        data = tmp_path / "four_classes.csv"
        save_csv(gen_gaussian_mixture(DatasetSpec(n_classes=4, dim=3, per_class=24, seed=2)), data)
        p = tmp_path / "cfg.yaml"
        p.write_text(self.CFG.format(path=data))
        return p

    def test_al_run_scores_minor_classes_of_the_csv(self, csv_config, tmp_path):
        out = tmp_path / "al"
        assert main(["al-run", "--config", str(csv_config), "--out", str(out)]) == 0
        with open(out / "summary.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows and all(0.0 <= float(r["minor_class_accuracy"]) <= 1.0 for r in rows)

    @pytest.mark.parametrize("command", ["al-run", "pilot"])
    @pytest.mark.parametrize("minor", [5, -1])
    def test_minor_class_outside_the_csv_labels_exits_2(self, csv_config, tmp_path, capsys,
                                                       command, minor):
        text = csv_config.read_text().replace(
            "    profile: step\n", f"    profile: step\n    minor_classes: [{minor}]\n")
        csv_config.write_text(text)
        out = tmp_path / "bad"
        assert main([command, "--config", str(csv_config), "--out", str(out)]) == 2
        assert f"minor class {minor} out of range for 4 classes" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_csv_feature_exits_2_naming_its_line(self, csv_config, tmp_path, capsys):
        data = tmp_path / "four_classes.csv"
        lines = data.read_text().splitlines(keepends=True)
        row = lines[5].split(",")
        lines[5] = ",".join([row[0], "nan", *row[2:]])
        data.write_text("".join(lines))
        out = tmp_path / "bad"
        assert main(["al-run", "--config", str(csv_config), "--out", str(out),
                     "--strategies", "random,snapshot_entropy"]) == 2
        assert "line 6: non-finite feature" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["al-run", "gen-data"])
    def test_one_class_csv_exits_2_naming_the_file(self, csv_config, tmp_path, capsys, command):
        data = tmp_path / "four_classes.csv"
        lines = data.read_text().splitlines(keepends=True)
        data.write_text("".join([lines[0]] + [l.rsplit(",", 1)[0] + ",0\n" for l in lines[1:]]))
        out = tmp_path / "bad"
        assert main([command, "--config", str(csv_config), "--out", str(out)]) == 2
        assert f"{data}: labels cover one class" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["al-run", "pilot"])
    def test_minor_classes_under_exponential_profile_exit_2(self, csv_config, tmp_path, capsys,
                                                            command):
        text = csv_config.read_text().replace(
            "    profile: step\n", "    profile: exponential\n    minor_classes: [3]\n")
        csv_config.write_text(text)
        out = tmp_path / "bad"
        assert main([command, "--config", str(csv_config), "--out", str(out)]) == 2
        assert "minor_classes applies to profile 'step', not 'exponential'" in capsys.readouterr().err
        assert not out.exists()

    def test_pilot_separates_minor_classes_of_the_csv(self, csv_config, tmp_path):
        out = tmp_path / "pilot"
        assert main(["pilot", "--config", str(csv_config), "--out", str(out)]) == 0
        with open(out / "pilot_auroc.csv") as f:
            assert len(list(csv.DictReader(f))) == 6


class TestMain:
    def test_cli_end_to_end(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "al-run", "--config", str(small_config), "--out", str(out),
            "--seeds", "0", "--strategies", "random",
        ])
        assert code == 0
        assert (out / "summary.csv").exists()

    def test_bad_strategy_is_reported(self, small_config, tmp_path, capsys):
        code = main([
            "al-run", "--config", str(small_config), "--out", str(tmp_path / "x"),
            "--seeds", "0", "--strategies", "not_a_strategy",
        ])
        assert code == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_config_parsed_once(self, small_config, tmp_path, monkeypatch):
        paths = []
        parse = cli.parse_config
        monkeypatch.setattr(cli, "parse_config", lambda p: paths.append(p) or parse(p))
        code = main(["theory-closed-form", "--config", str(small_config),
                     "--out", str(tmp_path / "x")])
        assert code == 0
        assert paths == [str(small_config)]

    @pytest.mark.parametrize("flags, message", [
        (["--jobs", "0"], "--jobs must be >= 1"),
        (["--jobs", "-1"], "--jobs must be >= 1"),
        (["--seeds", ""], "at least one seed is required"),
        (["--seeds", "0,0"], "repeated seed 0"),
        (["--seeds", "1,2,1"], "repeated seed 1"),
        (["--strategies", "random,random"], "repeated strategy random"),
        (["--strategies", ","], "at least one strategy is required"),
        (["--strategies", ""], "at least one strategy is required"),
    ])
    def test_bad_run_flags_exit_2_before_any_output(self, small_config, tmp_path, capsys,
                                                    flags, message):
        out = tmp_path / "x"
        assert main(["al-run", "--config", str(small_config), "--out", str(out), *flags]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_negative_seed_exits_2_naming_it(self, small_config, tmp_path, capsys, command):
        out = tmp_path / "x"
        assert main([command, "--config", str(small_config), "--out", str(out),
                     "--seeds", "0,-1"]) == 2
        assert "error: seed -1 must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_bad_net_section_exits_2_for_every_command(self, small_config, tmp_path, capsys,
                                                       command):
        small_config.write_text(SMALL_CFG.replace("tap_layers: [0, 1]", "tap_layers: [0, 2]"))
        out = tmp_path / "x"
        assert main([command, "--config", str(small_config), "--out", str(out)]) == 2
        assert ("invalid config section 'net': tap layer 2 out of range for 2 hidden layers"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_negative_dataset_seed_exits_2_naming_the_section(self, small_config, tmp_path,
                                                              capsys):
        small_config.write_text(SMALL_CFG.replace("  seed: 4\n", "  seed: -1\n"))
        out = tmp_path / "x"
        assert main(["gen-data", "--config", str(small_config), "--out", str(out)]) == 2
        assert ("invalid config section 'dataset': seed must be nonnegative"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["al-run", "pilot"])
    def test_repeated_minor_class_exits_2_naming_it(self, pilot_config, tmp_path, capsys,
                                                    command):
        pilot_config.write_text(PILOT_CFG.replace("minor_classes: [2, 3]",
                                                  "minor_classes: [2, 2, 3]"))
        out = tmp_path / "x"
        assert main([command, "--config", str(pilot_config), "--out", str(out)]) == 2
        assert "repeated minor class 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["al-run", "gen-data"])
    def test_named_minor_class_out_of_range_at_ratio_one_exits_2(self, tmp_path, capsys,
                                                                 command):
        p = tmp_path / "cfg.yaml"
        p.write_text("dataset: {n_classes: 4, per_class: 10, imbalance: {minor_classes: [9]}}\n")
        out = tmp_path / "x"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert "minor class 9 out of range for 4 classes" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_minor_class_list_exits_2_naming_it(self, pilot_config, tmp_path, capsys):
        pilot_config.write_text(PILOT_CFG.replace("minor_classes: [2, 3]", "minor_classes: []"))
        out = tmp_path / "x"
        assert main(["pilot", "--config", str(pilot_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "minor_classes is empty: name a class, or leave the key out" in err
        assert not out.exists()

    @pytest.mark.parametrize("dt, t_end", [(1.0, 0.4), (0.3, 1.0)])
    def test_t_end_off_the_dt_grid_exits_2(self, small_config, tmp_path, capsys, dt, t_end):
        small_config.write_text(SMALL_CFG.replace("  t_end: 1.0\n",
                                                  f"  t_end: {t_end}\n  dt: {dt}\n"))
        out = tmp_path / "x"
        assert main(["theory-sde", "--config", str(small_config), "--out", str(out)]) == 2
        assert "t_end must be a whole number of dt steps" in capsys.readouterr().err
        assert not out.exists()

    def test_initial_labeling_of_the_whole_train_set_exits_2(self, small_config, tmp_path,
                                                             capsys):
        small_config.write_text(SMALL_CFG.replace("initial_labeled: 9", "initial_labeled: 500"))
        out = tmp_path / "x"
        assert main(["al-run", "--config", str(small_config), "--out", str(out)]) == 2
        assert ("al.initial_labeled=500 must be below the training-set size 90"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_pilot_on_a_balanced_dataset_removes_the_out_it_created(self, small_config, tmp_path,
                                                                     capsys):
        out = tmp_path / "new" / "pilot"
        assert main(["pilot", "--config", str(small_config), "--out", str(out)]) == 2
        assert "pilot needs an imbalanced dataset" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("keep", ["empty", "with a file"])
    def test_command_check_leaves_an_existing_out_alone(self, small_config, tmp_path, keep):
        out = tmp_path / "pilot"
        out.mkdir()
        if keep == "with a file":
            (out / "notes.txt").write_text("mine")
        assert main(["pilot", "--config", str(small_config), "--out", str(out)]) == 2
        assert out.is_dir()
        assert [p.name for p in out.iterdir()] == ([] if keep == "empty" else ["notes.txt"])

    def test_missing_config_is_reported(self, tmp_path, capsys):
        code = main([
            "al-run", "--config", str(tmp_path / "absent.yaml"), "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_imports_need_only_numpy_and_pyyaml(self):
        """Importing the package and its CLI loads no public top-level module
        outside the standard library that importing numpy and PyYAML does
        not, besides dynal itself.  Underscored names are aliases and
        private helpers (multiprocessing's ``__mp_main__``, for one)."""
        src = str(Path(dynal.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}

        def top_level_modules(imports):
            code = f"import sys, {imports}; print(sorted({{m.split('.')[0] for m in sys.modules}}))"
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True).stdout
            return {m for m in ast.literal_eval(out) if not m.startswith("_")}

        extra = (top_level_modules("dynal, dynal.cli") - top_level_modules("numpy, yaml")
                 - set(sys.stdlib_module_names))
        assert extra == {"dynal"}
