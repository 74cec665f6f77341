import csv

import pytest

from dynal import cli, theorysim
from dynal.cli import RunManifest, dispatch, main, parse_config, serialize_config
from dynal.datasets import load_csv

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
        cfg = parse_config(p)
        with pytest.raises(ValueError, match="alpha_e > alpha_h > beta"):
            cfg.theory.elasticity_params(seed=0)

    def test_round_trip(self, small_config, tmp_path):
        cfg = parse_config(small_config)
        p2 = tmp_path / "round.yaml"
        p2.write_text(serialize_config(cfg))
        assert parse_config(p2) == cfg


class TestDispatch:
    def test_al_run_writes_expected_files(self, small_config, tmp_path):
        out = tmp_path / "out"
        manifest = RunManifest("al-run", str(small_config), str(out),
                               seeds=[0, 1], strategies=["random", "snapshot_entropy"])
        assert dispatch(manifest) == 0
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
            manifest = RunManifest("al-run", str(small_config), str(out),
                                   seeds=[0], strategies=["tidal_margin"])
            assert dispatch(manifest) == 0
        for f1 in sorted(out1.iterdir()):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes()

    def test_jobs_parallel_matches_sequential(self, small_config, tmp_path):
        seq, par = tmp_path / "seq", tmp_path / "par"
        dispatch(RunManifest("al-run", str(small_config), str(seq),
                             seeds=[0, 1], strategies=["random"], jobs=1))
        dispatch(RunManifest("al-run", str(small_config), str(par),
                             seeds=[0, 1], strategies=["random"], jobs=2))
        for f1 in sorted(seq.iterdir()):
            assert f1.read_bytes() == (par / f1.name).read_bytes()

    def test_pilot_writes_scores_and_auroc(self, pilot_config, tmp_path, capsys):
        out = tmp_path / "out"
        manifest = RunManifest("pilot", str(pilot_config), str(out),
                               seeds=[0], strategies=["random"])
        assert dispatch(manifest) == 0
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
        manifest = RunManifest("kl-analysis", str(pilot_config), str(out),
                               seeds=[0], strategies=["random"], analysis=True)
        assert dispatch(manifest) == 0
        with open(out / "kl_seed0.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 8  # pilot epochs
        assert all(float(r["kl_module"]) >= 0 for r in rows)

    def test_theory_sde_trajectories(self, small_config, tmp_path):
        out = tmp_path / "out"
        manifest = RunManifest("theory-sde", str(small_config), str(out),
                               seeds=[0], strategies=["random"])
        assert dispatch(manifest) == 0
        with open(out / "trajectory_sde_seed0.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 201  # iterations + 1
        with open(out / "trajectory_ode.csv") as f:
            ode_rows = list(csv.DictReader(f))
        assert len(ode_rows) == 1001  # t_end / dt + 1

    def test_theory_closed_form_matches_library(self, small_config, tmp_path):
        out = tmp_path / "out"
        manifest = RunManifest("theory-closed-form", str(small_config), str(out),
                               seeds=[0], strategies=["random"])
        assert dispatch(manifest) == 0
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
        manifest = RunManifest("gen-data", str(small_config), str(out),
                               seeds=[0], strategies=["random"])
        assert dispatch(manifest) == 0
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
        manifest = RunManifest("al-run", str(p), str(out),
                               seeds=[0], strategies=["tidal_entropy"])
        assert dispatch(manifest) == 0
        score_files = sorted(out.glob("scores_*.csv"))
        assert len(score_files) == 2  # one per cycle
        with open(score_files[0]) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 20  # subset size
        assert sum(int(r["selected"]) for r in rows) == 6


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

    def test_missing_config_is_reported(self, tmp_path, capsys):
        code = main([
            "al-run", "--config", str(tmp_path / "absent.yaml"), "--out", str(tmp_path / "x"),
        ])
        assert code == 2
