"""The benchmark's per-layer tracer must find every name it wraps, so a
refactor that breaks ``benchmark/run.py --trace 1`` fails here."""

import importlib.util
from pathlib import Path

import numpy as np

from dynal import alengine, cli, netcore, tdtrack
from dynal.netcore import NetConfig

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
        cfg = NetConfig(input_dim=2, hidden_sizes=[3], n_classes=2, seed=0)
        netcore.forward_batch(netcore.init_net(cfg), cfg, np.zeros((3, 2)))
        assert t.counts["netcore.forward_batch.calls"] == 1
        assert t.counts["netcore.forward_batch.rows"] == 3
        assert "netcore.forward_batch" in t.names
    finally:
        t.uninstall()
    assert (netcore.forward_batch, netcore.optimizer_step, alengine.train_joint,
            cli.parse_config, tdtrack.TDStore.update_batch) == originals
