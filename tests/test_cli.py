import ast
import csv
import dataclasses
import multiprocessing
import os
import runpy
import subprocess
import sys
import types
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

import dynal
from dynal import alengine, cli, theorysim
from dynal.cli import ExperimentConfig, main, parse_config
from dynal.datasets import (GENERATORS, IMBALANCE_PROFILES, DatasetSpec, build_dataset,
                            gen_gaussian_mixture, load_csv, save_csv)
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


def dump_config(cfg: ExperimentConfig) -> str:
    """YAML text of every field of ``cfg``, whose parse should equal ``cfg``."""
    return yaml.safe_dump(dataclasses.asdict(cfg), sort_keys=True)


RUNPY_REIMPORT = "'dynal.cli' found in sys.modules"


@pytest.fixture(scope="module")
def pure_python_parse_config():
    """``parse_config`` of a second copy of ``dynal.cli``, made while PyYAML
    reports no libyaml: its loader's base is the pure-Python SafeLoader."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(yaml, "__with_libyaml__", False)
        # runpy warns that dynal.cli is imported already; this copy is meant to be a second one
        warnings.filterwarnings("ignore", RUNPY_REIMPORT, RuntimeWarning)
        namespace = runpy.run_module("dynal.cli", run_name="dynal_cli_pure_yaml", alter_sys=True)
    assert namespace["_ConfigLoader"].__bases__ == (yaml.SafeLoader,)
    return namespace["parse_config"]


def parse_outcome(parse, path):
    """What ``parse(path)`` gives, comparable across the two copies of the
    module: the config's repr, or the error's type and text.  libyaml and
    PyYAML word a syntax error apart, so for one only the class and the
    marks' lines and columns are kept."""
    try:
        return repr(parse(path))
    except yaml.MarkedYAMLError as e:
        marks = [(m.line, m.column) if m else None for m in (e.context_mark, e.problem_mark)]
        return type(e), marks
    except Exception as e:
        return type(e), str(e)


@pytest.fixture(autouse=True)
def both_loader_bases(monkeypatch, pure_python_parse_config):
    """Every config a test here parses, by ``parse_config`` or by ``main``,
    is parsed by both loader bases, which must give equal configs or equal
    errors; the test then sees the shipped loader's result."""
    shipped = cli.parse_config

    def parse_both(path):
        assert parse_outcome(shipped, path) == parse_outcome(pure_python_parse_config, path)
        return shipped(path)

    monkeypatch.setattr(cli, "parse_config", parse_both)
    monkeypatch.setitem(globals(), "parse_config", parse_both)


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

    def test_a_second_parse_resolves_no_type_hints(self, monkeypatch):
        # a section's hints are resolved once per class, in each copy of the module
        path = CONFIG_DIR / "pilot_longtail.yaml"
        first = parse_config(path)
        calls = []
        resolve = typing.get_type_hints
        monkeypatch.setattr(typing, "get_type_hints",
                            lambda *a, **k: calls.append(a) or resolve(*a, **k))
        assert parse_config(path) == first
        assert calls == []

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

    @pytest.mark.parametrize("text, key, line", [
        ("al:\n  epochs: 5\npilot:\n  epochs: 3\nal:\n  n_cycles: 2\n", "al", 5),
        ("pilot:\n  epochs: 2\n  batch_size: 8\n  epochs: 40\n", "epochs", 4),
        ("pilot: {epochs: 2, epochs: 40}\n", "epochs", 1),
        ("dataset:\n  seed: 1\n  imbalance:\n    ratio: 3\n    profile: step\n"
         "    ratio: 4\n", "ratio", 6),
        # Quoting does not make another key.
        ("pilot: {lam: 0.5}\n'pilot': {epochs: 2}\n", "pilot", 2),
        # A repeat inside a mapping that ``<<:`` merges, inline or in a merged sequence.
        ("pilot: {<<: {epochs: 3, epochs: 4}}\n", "epochs", 1),
        ("al: {<<: [{epochs: 3}, {batch_size: 8, batch_size: 9}], lam: 0.5}\n", "batch_size", 1),
        ("base: &b\n  epochs: 3\n  epochs: 4\npilot:\n  <<: *b\n", "epochs", 3),
        # The inner mapping is finished first, as a streaming composer finishes it.
        ("al: {epochs: 1}\npilot: {lam: 1, lam: 2}\nal: {epochs: 2}\n", "lam", 2),
    ])
    def test_repeated_key_rejected_naming_it_and_its_line(self, tmp_path, text, key, line):
        p = tmp_path / "bad.yaml"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"repeated config key '{key}' at line {line}$"):
            parse_config(p)

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_repeated_key_exits_2_for_every_command(self, small_config, tmp_path, capsys,
                                                    command):
        small_config.write_text(SMALL_CFG + "pilot: {epochs: 2, epochs: 40}\n")
        out = tmp_path / "x"
        assert main([command, "--config", str(small_config), "--out", str(out)]) == 2
        line = SMALL_CFG.count("\n") + 1
        assert (f"error: {small_config}: repeated config key 'epochs' at line {line}\n"
                == capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("text", ["al: [1, 2\n", "pilot:\n  epochs: 5\n bad\n",
                                      "pilot: {epochs: *missing}\n", "a: b: c\n"])
    @pytest.mark.parametrize("command", ["theory-closed-form", "al-run"])
    def test_malformed_yaml_exits_2(self, tmp_path, capsys, command, text):
        p = tmp_path / "bad.yaml"
        p.write_text(text)
        out = tmp_path / "x"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_loader_base_is_libyaml_when_pyyaml_has_it(self):
        base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert cli._ConfigLoader.__bases__ == (base,)

    def test_merge_override_and_aliases_parse(self, tmp_path):
        """A key that overrides one merged in by ``<<:`` is not a repeat."""
        p = tmp_path / "ok.yaml"
        p.write_text("pilot: &p {<<: {epochs: 3, lam: 0.5}, epochs: 4}\n"
                     "al: {<<: [*p, {batch_size: 8}], batch_size: 16, epochs: 5}\n"
                     "net: {hidden_sizes: &h [8, 8], tap_layers: [0, 1]}\n"
                     "theory: {x0: [1, 2, 3], classes: *h}\n")
        cfg = parse_config(p)
        assert cfg.pilot == alengine.Schedule(epochs=4, batch_size=32, lam=0.5)
        assert (cfg.al.epochs, cfg.al.batch_size, cfg.al.lam) == (5, 16, 0.5)
        assert cfg.net.hidden_sizes == cfg.theory.classes == [8, 8]

    def test_ints_pass_as_floats_and_null_as_none(self, tmp_path):
        p = tmp_path / "ok.yaml"
        p.write_text("al:\n  lam: 2\ntheory:\n  x0: [1, 2, 3]\ndataset:\n  csv_path: null\n")
        cfg = parse_config(p)
        assert cfg.al.lam == 2 and cfg.theory.x0 == [1, 2, 3] and cfg.dataset.csv_path is None

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.name)
    def test_shipped_configs_parse(self, path, tmp_path):
        cfg = parse_config(path)
        p2 = tmp_path / "round.yaml"
        p2.write_text(dump_config(cfg))
        assert parse_config(p2) == cfg

    def test_section_key_sets(self, tmp_path):
        """The keys each YAML section accepts; a default config round-trips."""
        default = yaml.safe_load(dump_config(ExperimentConfig()))
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
        p.write_text(dump_config(ExperimentConfig()))
        assert parse_config(p) == ExperimentConfig()

    @pytest.mark.parametrize("key", ["seed", "net", "opt", "head", "head_reduce_dim", "analysis"])
    def test_run_fields_are_not_al_keys(self, tmp_path, key):
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
        p2.write_text(dump_config(cfg))
        assert parse_config(p2) == cfg


class TestBuilders:
    """The run configs that commands build from a parsed config."""

    def test_pilot_config_of_an_empty_config(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        cfg = parse_config(p)
        run = cli.build_run_config(cfg, cfg.pilot, seed=7)
        assert (run.epochs, run.batch_size, run.lam, run.seed) == (30, 32, 1.0, 7)
        assert run.net is cfg.net and run.head is cfg.head and run.opt is cfg.optimizer
        assert (run.net, run.head, run.opt) == (NetConfig(), HeadConfig(), OptimizerConfig())

    def test_al_config_carries_the_al_section_whole(self, small_config):
        cfg = parse_config(small_config)
        run = cli.build_run_config(cfg, cfg.al, seed=3, analysis=True)
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

    @pytest.mark.parametrize("section, key, value, message", [
        ("pilot", "epochs", 0, "epochs must be >= 1"),
        ("pilot", "batch_size", 0, "batch_size must be >= 1"),
        ("pilot", "lam", -1.0, "lam must be nonnegative and finite"),
        ("al", "strategy", "nope", "unknown strategy 'nope'"),
        ("al", "initial_labeled", 0, "initial_labeled must be >= 1"),
        ("al", "budget_per_cycle", 0, "budget_per_cycle must be >= 1"),
        ("al", "n_cycles", 0, "n_cycles must be >= 1"),
        ("al", "subset_size", 5, "subset_size must be >= budget_per_cycle"),
        ("al", "epochs", 0, "epochs must be >= 1"),
        ("head", "reduce_dim", 0, "reduce_dim must be >= 1"),
        ("optimizer", "decay_epoch", -5, "decay_epoch must be nonnegative"),
        ("dataset", "noise", -1.0, "radius and noise must be finite and nonnegative"),
        ("dataset", "radius", -3.0, "radius and noise must be finite and nonnegative"),
        ("theory", "dt", 0.3, "t_end must be a whole number of dt steps"),
        ("theory", "sy_values", [0.5, 1.5], "s_y must lie in (0, 1), got 1.5"),
        ("theory", "classes", [3, 1], "n_classes must be >= 2, got 1"),
    ])
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_bad_section_value_exits_2_for_every_command(self, tmp_path, capsys, command,
                                                         section, key, value, message):
        """Each section checks its own values at parse, so a bad one stops
        every command, even one that does not read the section."""
        raw = yaml.safe_load(SMALL_CFG)
        raw.setdefault(section, {})[key] = value
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(raw))
        out = tmp_path / "new" / "x"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert f"invalid config section '{section}': {message}" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("n_runs", [0, -1])
    @pytest.mark.parametrize("command", ["theory-sde", "theory-closed-form", "gen-data"])
    def test_non_positive_n_runs_exits_2(self, small_config, tmp_path, capsys, command, n_runs):
        small_config.write_text(SMALL_CFG + f"  n_runs: {n_runs}\n")
        out = tmp_path / "x"
        assert main([command, "--config", str(small_config), "--out", str(out)]) == 2
        assert ("invalid config section 'theory': n_runs must be >= 1"
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
    "decay_epoch": st.integers(0, 10**6),
    "radius": st.floats(0, allow_infinity=False),
    "noise": st.floats(0, allow_infinity=False),
    "n_runs": st.integers(1, 10**6),
    "epochs": st.integers(1, 10**6),
    "batch_size": st.integers(1, 10**6),
    "lam": st.floats(0, 1e300),
    "initial_labeled": st.integers(1, 10**6),
    "n_cycles": st.integers(1, 10**6),
    # Every budget drawn fits the default subset (200) and every subset drawn.
    "budget_per_cycle": st.integers(1, 200),
    "subset_size": st.integers(200, 10**6),
    "reduce_dim": st.integers(1, 10**6),
    # Every dt drawn divides the default t_end (5.0) and every t_end drawn into whole steps.
    "dt": st.sampled_from([1e-3, 0.01, 0.25, 0.5, 1.0]),
    "t_end": st.integers(1, 10**6).map(float),
    "sy_values": st.lists(st.floats(0, 1, exclude_min=True, exclude_max=True), max_size=4),
    "classes": st.lists(st.integers(2, 10**6), max_size=4),
    "n_1e": st.integers(1, 10**6),
    "n_1h": st.integers(1, 10**6),
    "n_2": st.integers(1, 10**6),
    "seed": st.integers(0, 10**6),
    # At least two hidden layers, so that every tap layer drawn (0 or 1) exists.
    "hidden_sizes": st.lists(st.integers(1, 10**6), min_size=2, max_size=4),
    "tap_layers": st.lists(st.integers(0, 1), min_size=1, max_size=4),
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
    p.write_text(dump_config(cfg), encoding="utf-8")
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

    @pytest.mark.parametrize("error", [RuntimeError, ValueError])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_strategy_leaves_its_seed_group(self, small_config, tmp_path, capsys,
                                                    monkeypatch, jobs, error):
        """A run that raises writes nothing and is named on stderr with its
        traceback; the other strategies of its seed finish and are written.
        A ValueError raised inside a run is such a failure too, not bad input."""
        if jobs > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patch reaches pool workers only when they are forked")
        args = ["al-run", "--config", str(small_config), "--seeds", "0,1"]
        clean = tmp_path / "clean"
        assert main(args + ["--out", str(clean), "--strategies", "random,snapshot_entropy"]) == 0
        capsys.readouterr()
        scores = alengine.strategy_scores

        def fail_tidal(kind, *a):
            if kind is StrategyKind.TIDAL_MARGIN:
                raise error("tidal scoring failed")
            return scores(kind, *a)

        monkeypatch.setattr(alengine, "strategy_scores", fail_tidal)
        out = tmp_path / "out"
        code = main(args + ["--out", str(out), "--jobs", str(jobs),
                            "--strategies", "random,tidal_margin,snapshot_entropy"])
        err = capsys.readouterr().err
        assert code == 1
        assert "FAILED runs: tidal_margin-seed0, tidal_margin-seed1" in err
        assert err.count(f"{error.__name__}: tidal scoring failed") == 2
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

    def test_pilot_score_dump_is_the_library_run(self, pilot_config, tmp_path):
        out = tmp_path / "out"
        assert main(["pilot", "--config", str(pilot_config), "--out", str(out),
                     "--seeds", "0,2"]) == 0
        cfg = parse_config(pilot_config)
        train, _ = build_dataset(cfg.dataset)
        minor = cfg.dataset.imbalance.minor_classes_for(train.n_classes)
        for seed in (0, 2):
            pilot = alengine.run_pilot(train, cli.build_run_config(cfg, cfg.pilot, seed), minor)
            labels = pilot.snapshot_labels.tolist()
            expected = [[str(i), name, repr(s), str(lbl), "0"]
                        for name, scores in pilot.scores.items()
                        for i, s, lbl in zip(train.ids.tolist(), scores.tolist(), labels)]
            with open(out / f"scores_pilot_seed{seed}.csv") as f:
                rows = list(csv.reader(f))
            assert rows[0] == ["sample_id", "strategy", "score", "predicted_label", "selected"]
            assert rows[1:] == expected

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

    def test_al_run_analysis_cycle_one_table_is_shared(self, small_config, tmp_path):
        # Cycle 1 is one training for every strategy of a seed, so its KL table is too.
        out = tmp_path / "out"
        strategies = ["random", "coreset", "snapshot_entropy", "tidal_entropy", "tidal_margin"]
        assert main(["al-run", "--config", str(small_config), "--out", str(out), "--seeds", "0,1",
                     "--strategies", ",".join(strategies), "--analysis"]) == 0
        for k in (0, 1):
            tables = {(out / f"kl_{s}_seed{k}_cycle1.csv").read_bytes() for s in strategies}
            assert len(tables) == 1

    @pytest.mark.parametrize("command", ["pilot", "kl-analysis"])
    def test_al_section_does_not_reach_pilot_runs(self, tmp_path, command):
        """The pilot trains with its own epochs, batch size and lam; no
        key of the ``al:`` section changes its artifacts."""
        al_sections = {
            "varied": "al:\n  strategy: tidal_entropy\n  initial_labeled: 5\n"
                      "  budget_per_cycle: 3\n  n_cycles: 1\n  subset_size: 7\n"
                      "  epochs: 2\n  batch_size: 7\n  lam: 0.25\n  dump_scores: true\n",
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

    def test_al_run_score_dumps_are_the_cycle_reports(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text(SMALL_CFG.replace("al:", "al:\n  dump_scores: true"))
        out = tmp_path / "out"
        strategies = ["random", "coreset", "snapshot_margin", "tidal_entropy"]
        assert main(["al-run", "--config", str(p), "--out", str(out), "--seeds", "0,1",
                     "--strategies", ",".join(strategies)]) == 0
        cfg = parse_config(p)
        train, test = build_dataset(cfg.dataset)
        expected_files = set()
        for seed in (0, 1):
            runs = alengine.run_experiments(train, test, cli.build_run_config(cfg, cfg.al, seed),
                                            strategies)
            for strategy, reports in zip(strategies, runs):
                for rep in reports:
                    if strategy in ("random", "coreset"):
                        assert rep.score_dump is None
                        continue
                    name = f"scores_{strategy}_seed{seed}_cycle{rep.cycle}.csv"
                    expected_files.add(name)
                    ids, scores, labels = rep.score_dump
                    assert set(rep.selected_ids) <= set(ids)
                    with open(out / name) as f:
                        rows = list(csv.reader(f))[1:]
                    assert rows == [[str(i), strategy, repr(s), str(lbl),
                                     str(int(i in rep.selected_ids))]
                                    for i, s, lbl in zip(ids, scores, labels)]
        assert {f.name for f in out.glob("scores_*")} == expected_files


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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_minor_class_without_a_test_sample_exits_2(self, csv_config, tmp_path, capsys,
                                                       jobs):
        """A one-row class stays in train, so its test recall, and the
        minor-class accuracy, would be nan: al-run refuses it before training."""
        data = tmp_path / "four_classes.csv"
        lines = data.read_text().splitlines(keepends=True)
        class_3 = [l for l in lines[1:] if l.rstrip().endswith(",3")]
        data.write_text("".join(l for l in lines if l not in class_3[1:]))
        csv_config.write_text(csv_config.read_text().replace("ratio: 4", "ratio: 2"))
        out = tmp_path / "bad"
        with pytest.warns(UserWarning, match="class 3 has a single sample"):
            assert main(["al-run", "--config", str(csv_config), "--out", str(out),
                         "--seeds", "0,1", "--jobs", str(jobs)]) == 2
        assert "error: minor class 3 has no test sample" in capsys.readouterr().err
        assert not out.exists()

    def test_pilot_separates_minor_classes_of_the_csv(self, csv_config, tmp_path):
        out = tmp_path / "pilot"
        assert main(["pilot", "--config", str(csv_config), "--out", str(out)]) == 0
        with open(out / "pilot_auroc.csv") as f:
            assert len(list(csv.DictReader(f))) == 6


class TestDatasetFaults:
    """Dataset faults exit 2 for every command that reads the dataset,
    before any file is written."""

    @pytest.fixture
    def one_per_class_csv(self, tmp_path):
        data = tmp_path / "three_rows.csv"
        save_csv(gen_gaussian_mixture(DatasetSpec(n_classes=3, dim=4, per_class=1, seed=2)), data)
        return data

    @pytest.mark.parametrize("command", ["kl-analysis", "gen-data", "al-run"])
    @pytest.mark.parametrize("source", ["generated", "csv"])
    def test_no_class_of_two_samples_exits_2(self, one_per_class_csv, tmp_path, capsys, command,
                                             source):
        dataset = ("{n_classes: 3, dim: 4, per_class: 1}" if source == "generated"
                   else f"{{generator: csv_file, csv_path: '{one_per_class_csv}'}}")
        p = tmp_path / "cfg.yaml"
        p.write_text(f"dataset: {dataset}\n"
                     "al: {initial_labeled: 1, budget_per_cycle: 1, n_cycles: 1, subset_size: 1,"
                     " epochs: 2}\npilot: {epochs: 2}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert ("no class has two samples, so the test split would be empty"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["theory-closed-form", "gen-data"])
    @pytest.mark.parametrize("dataset, message", [
        ("{generator: csv_file}", "csv_file generator requires csv_path"),
        ("{generator: concentric_rings}", "concentric_rings is defined for dim = 2"),
        ("{generator: gaussian_mixture, dim: 1}", "gaussian_mixture needs dim >= 2"),
    ])
    def test_generator_fault_exits_2_at_parse(self, tmp_path, capsys, command, dataset, message):
        p = tmp_path / "cfg.yaml"
        p.write_text(f"dataset: {dataset}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert f"invalid config section 'dataset': {message}" in capsys.readouterr().err
        assert not out.exists()


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
        assert ("error: initial_labeled=500 must be below the training-set size 90"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_initial_labeling_of_the_whole_train_set_exits_2_before_any_job(
            self, small_config, tmp_path, capsys, monkeypatch, jobs):
        small_config.write_text(SMALL_CFG.replace("initial_labeled: 9", "initial_labeled: 90"))
        monkeypatch.setattr(cli, "_al_worker", lambda job: pytest.fail("a job ran"))
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            lambda n: pytest.fail("a pool started"))
        out = tmp_path / "x"
        assert main(["al-run", "--config", str(small_config), "--out", str(out),
                     "--seeds", "0,1", "--jobs", str(jobs)]) == 2
        assert ("error: initial_labeled=90 must be below the training-set size 90"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_value_error_inside_lockstep_training_fails_only_its_seed(
            self, small_config, tmp_path, capsys, monkeypatch):
        """A ValueError raised after the input checks is a failed seed, not
        bad input: exit 1, the other seed's files and the summary kept."""
        args = ["al-run", "--config", str(small_config), "--seeds", "0,1",
                "--strategies", "random,snapshot_entropy"]
        clean = tmp_path / "clean"
        assert main(args + ["--out", str(clean)]) == 0
        capsys.readouterr()
        train_lockstep, calls = alengine.train_lockstep, []

        def fail_at_seed_1(labeled_sets, cfg, *a, **k):
            calls.append(cfg.seed)
            if cfg.seed == 1:
                raise ValueError("lockstep defect")
            return train_lockstep(labeled_sets, cfg, *a, **k)

        monkeypatch.setattr(alengine, "train_lockstep", fail_at_seed_1)
        out = tmp_path / "out"
        code = main(args + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        # every cycle trains in one lockstep call: seed 0's two cycles (one labeled set, then
        # two), then seed 1's first
        assert calls == [0, 0, 1]
        assert "FAILED runs: random-seed1, snapshot_entropy-seed1" in err
        assert "ValueError: lockstep defect" in err
        assert "error:" not in err
        assert sorted(f.name for f in out.iterdir()) == [
            "results_random_seed0.csv", "results_snapshot_entropy_seed0.csv", "summary.csv"]
        for name in ("results_random_seed0.csv", "results_snapshot_entropy_seed0.csv"):
            assert (out / name).read_bytes() == (clean / name).read_bytes()
        with open(out / "summary.csv") as f:
            assert {row["seed"] for row in csv.DictReader(f)} == {"0"}

    def test_pilot_on_a_balanced_dataset_leaves_no_out(self, small_config, tmp_path, capsys):
        out = tmp_path / "new" / "pilot"
        assert main(["pilot", "--config", str(small_config), "--out", str(out)]) == 2
        assert "pilot needs an imbalanced dataset" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_kl_analysis_runs_on_a_balanced_dataset(self, small_config, tmp_path):
        out = tmp_path / "kl"
        assert main(["kl-analysis", "--config", str(small_config), "--out", str(out),
                     "--seeds", "0,1"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["kl_seed0.csv", "kl_seed1.csv"]

    def test_pilot_with_every_class_minor_exits_2_before_training(self, pilot_config, tmp_path,
                                                                   capsys, monkeypatch):
        pilot_config.write_text(PILOT_CFG.replace("minor_classes: [2, 3]",
                                                  "minor_classes: [0, 1, 2, 3]"))
        monkeypatch.setattr(alengine, "train_joint", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "x"
        assert main(["pilot", "--config", str(pilot_config), "--out", str(out)]) == 2
        assert "error: pilot needs an imbalanced dataset" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, kept", [("pilot", "scores_pilot_seed0.csv"),
                                               ("kl-analysis", "kl_seed0.csv")])
    def test_diverging_training_exits_1_keeping_earlier_seeds(self, pilot_config, tmp_path,
                                                              capsys, monkeypatch, command, kept):
        train_joint = alengine.train_joint

        def diverge_at_seed_1(train, cfg, *args, **kwargs):
            if cfg.seed == 1:
                raise FloatingPointError("non-finite loss for sample id 0")
            return train_joint(train, cfg, *args, **kwargs)

        monkeypatch.setattr(alengine, "train_joint", diverge_at_seed_1)
        out = tmp_path / "x"
        assert main([command, "--config", str(pilot_config), "--out", str(out),
                     "--seeds", "0,1"]) == 1
        assert "error: non-finite loss for sample id 0" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [kept]

    @pytest.mark.parametrize("theory", [
        "{dt: 1.0, t_end: 2000.0}",  # the ODE
        "{step_size: 10.0, iterations: 2000, dt: 0.5, t_end: 500.0}",  # the SDE
    ])
    def test_diverging_theory_sde_exits_1_before_any_file(self, tmp_path, capsys, theory):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"theory: {theory}\n")
        out = tmp_path / "x"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["theory-sde", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_second_seed_exits_1_keeping_the_first(self, tmp_path, capsys):
        # At step_size 1, seed 1's logits overflow at iteration 1974 and seed 0's at 2024.
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("theory: {step_size: 1.0, iterations: 2000}\n")
        out = tmp_path / "x"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["theory-sde", "--config", str(cfg), "--out", str(out),
                         "--seeds", "0,1"]) == 1
        assert "error: non-finite group means by iteration 2000" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["trajectory_sde_seed0.csv"]

    @pytest.mark.parametrize("keep", ["empty", "with a file"])
    def test_command_check_leaves_an_existing_out_alone(self, small_config, tmp_path, keep):
        out = tmp_path / "pilot"
        out.mkdir()
        if keep == "with a file":
            (out / "notes.txt").write_text("mine")
        assert main(["pilot", "--config", str(small_config), "--out", str(out)]) == 2
        assert out.is_dir()
        assert [p.name for p in out.iterdir()] == ([] if keep == "empty" else ["notes.txt"])

    @pytest.mark.filterwarnings(f"ignore:{RUNPY_REIMPORT}:RuntimeWarning")
    def test_runs_as_main_module_under_a_foreign_main(self, small_config, tmp_path, monkeypatch):
        """As ``python -m cProfile -m dynal.cli`` runs it: a fresh ``__main__``
        namespace while sys.modules["__main__"] stays another module."""
        out = tmp_path / "x"
        monkeypatch.setattr(sys, "argv", ["dynal", "theory-closed-form", "--config",
                                          str(small_config), "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("dynal.cli", run_name="__main__", alter_sys=False)
        assert exit_info.value.code == 0
        header = b"s_y,n_classes,entropy,margin\r\n"
        assert (out / "closed_form.csv").read_bytes().startswith(header)

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

    def test_import_loads_no_process_pool(self):
        """``al-run`` imports the process pool only to run more than one job."""
        env = {**os.environ, "PYTHONPATH": str(Path(dynal.__file__).resolve().parent.parent)}
        code = "import sys, dynal.cli; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "False\n"


class TestOut:
    """``--out`` and its missing parents are made by the command's first
    write; ``main`` checks only that they could be, and makes nothing."""

    @staticmethod
    def config(tmp_path, command):
        p = tmp_path / "cfg.yaml"
        p.write_text(PILOT_CFG if command in ("pilot", "kl-analysis")
                     else SMALL_CFG.replace("al:\n", "al:\n  dump_scores: true\n"))
        return p

    @pytest.mark.parametrize("command, flags", [
        ("al-run", ["--jobs", "1"]), ("al-run", ["--jobs", "2"]), ("pilot", []),
        ("kl-analysis", []), ("theory-sde", []), ("theory-closed-form", []), ("gen-data", []),
    ])
    def test_missing_nested_out_gets_the_files_of_an_existing_one(self, tmp_path, command,
                                                                   flags):
        args = [command, "--config", str(self.config(tmp_path, command)), "--seeds", "0,1",
                *flags]
        if command == "al-run":
            args += ["--strategies", "random,tidal_entropy", "--analysis"]
        existing, nested = tmp_path / "existing", tmp_path / "missing" / "nested" / "out"
        existing.mkdir()
        for out in (existing, nested):
            assert main(args + ["--out", str(out)]) == 0
        files = sorted(f.name for f in existing.iterdir())
        assert files and files == sorted(f.name for f in nested.iterdir())
        for name in files:
            assert (nested / name).read_bytes() == (existing / name).read_bytes()

    def test_relative_out_is_made_below_the_working_directory(self, tmp_path, monkeypatch):
        config = self.config(tmp_path, "theory-closed-form")
        monkeypatch.chdir(tmp_path)
        assert main(["theory-closed-form", "--config", str(config), "--out", "a/b"]) == 0
        assert [p.name for p in (tmp_path / "a" / "b").iterdir()] == ["closed_form.csv"]

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    @pytest.mark.parametrize("case", ["file", "below-file", "dangling-link"])
    def test_out_at_or_below_a_file_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                            command, case):
        """An ``--out`` that is a file, lies below one, or is a dangling link
        (which no ``mkdir`` can replace) exits 2 naming it, touching nothing."""
        config = self.config(tmp_path, command)
        trained = []
        monkeypatch.setattr(alengine, "train_lockstep", lambda *a, **k: trained.append(a))
        file = tmp_path / "notes.txt"
        file.write_text("mine")
        if case == "dangling-link":
            file = tmp_path / "link"
            file.symlink_to(tmp_path / "nowhere" / "out")
        out = file / "sub" / "out" if case == "below-file" else file
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert (f"error: --out {out}: {file} is not a writable directory"
                in capsys.readouterr().err)
        assert trained == []
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "notes.txt").read_text() == "mine"

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_unwritable_directory_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                          command):
        """``os.access`` is asked about the nearest existing directory; when
        it says no, the command exits 2 naming ``--out`` before training,
        and nothing is made."""
        config = self.config(tmp_path, command)
        trained, asked = [], []
        monkeypatch.setattr(alengine, "train_lockstep", lambda *a, **k: trained.append(a))

        def no_access(path, mode):
            asked.append((path, mode))
            return False

        monkeypatch.setattr(os, "access", no_access)
        out = tmp_path / "a" / "b"
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert (f"error: --out {out}: {tmp_path} is not a writable directory"
                in capsys.readouterr().err)
        assert asked == [(tmp_path, os.W_OK | os.X_OK)]
        assert trained == []
        assert sorted(tmp_path.rglob("*")) == before
