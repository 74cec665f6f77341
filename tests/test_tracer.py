"""The benchmark's per-layer tracer must find every name it wraps, so a
refactor that breaks ``benchmark/run.py --trace 1`` fails here."""

import importlib.util
from pathlib import Path

import numpy as np

from dynal import alengine, cli, netcore, tdtrack, theorysim
from dynal.alengine import ALConfig
from dynal.datasets import DatasetSpec, build_dataset
from dynal.estimators import StrategyKind
from dynal.netcore import NetConfig, OptimizerConfig
from dynal.theorysim import ElasticityParams

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_install_records_spans_and_uninstall_restores():
    tracer = load_tracer()
    originals = (netcore.forward_batch, netcore.optimizer_step, alengine.train_joint,
                 cli.parse_config, tdtrack.TDStore.update_batch)
    t = tracer.Tracer()
    tracer.install_layers(t)
    try:
        cfg = NetConfig(hidden_sizes=[3], tap_layers=[0])
        netcore.forward_batch(netcore.init_net(cfg, 2, 2, 0), cfg, np.zeros((3, 2)))
        assert t.counts["netcore.forward_batch.calls"] == 1
        assert t.counts["netcore.forward_batch.rows"] == 3
        assert "netcore.forward_batch" in t.names
    finally:
        t.uninstall()
    assert (netcore.forward_batch, netcore.optimizer_step, alengine.train_joint,
            cli.parse_config, tdtrack.TDStore.update_batch) == originals


def test_row_counts_of_a_scored_cycle():
    # The tracer reads row counts from fixed argument positions; a signature
    # change that moves them breaks these counts here, not only in --trace 1.
    tracer = load_tracer()
    train, test = build_dataset(DatasetSpec(n_classes=3, dim=4, per_class=40, seed=1))
    cfg = ALConfig(
        net=NetConfig(hidden_sizes=[8], tap_layers=[0]),
        opt=OptimizerConfig(kind="sgd_momentum", initial_lr=0.05),
        strategy=StrategyKind.TIDAL_MARGIN, initial_labeled=10, budget_per_cycle=5,
        subset_size=25, epochs=3, batch_size=4, seed=0,
    )
    labeled = [int(i) for i in train.ids[:10]]
    t = tracer.Tracer()
    tracer.install_layers(t)
    try:
        alengine.run_cycle(labeled, train.ids[10:], train, test, cfg, cycle=1)
    finally:
        t.uninstall()
    assert t.counts["estimators.strategy_scores.rows"] == 25
    assert t.counts["acquisition.select_top_k.rows"] == 25
    assert t.counts["tdtrack.update_batch.rows"] == 3 * 10
    # The head's backprop runs once per executed step: 3 epochs x ceil(10 / 4) batches.
    assert t.names.count("tdhead.head_backward") == 3 * 3
    assert t.names.count("tdhead.head_backward") == t.names.count("tdtrack.update_batch")


def test_step_counts_of_the_theory_calls():
    # The theory workload's step counts come from the params, dt and t_end
    # positions of these two signatures.
    tracer = load_tracer()
    params = ElasticityParams(n_1e=2, n_1h=2, n_2=2, iterations=30, seed=0)
    dt, t_end = 0.01, 0.5
    t = tracer.Tracer()
    tracer.install_layers(t)
    try:
        theorysim.integrate_ode(params, dt, t_end)
        theorysim.simulate_discrete_ensemble(params, 3)
    finally:
        t.uninstall()
    assert t.counts["theorysim.integrate_ode.steps"] == round(t_end / dt)
    assert t.counts["theorysim.simulate_discrete_ensemble.steps"] == params.iterations
