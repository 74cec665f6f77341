"""Spans and counts recorded around the program's public functions.

Functions are wrapped where their caller looks the name up: a module
attribute for calls made through the module (``netcore.forward_batch``),
the importing module's namespace for names imported with ``from``
(``alengine.strategy_scores``), and the class for methods
(``TDStore.update_batch``).  Spans live in memory as parallel lists and
are written out once, when the run ends.
"""

from __future__ import annotations

import csv
import functools
import os
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """In-memory spans and counts; wrap() patches a function, uninstall() restores all."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.alloc_peak: dict[str, float] = defaultdict(float)
        self.span_names: set[str] = set()
        self.count_names: set[str] = set()

    def begin_phase(self) -> int:
        """Start counting afresh; returns the index of the phase's first span."""
        self.counts = Counter()
        return len(self.names)

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def self_times(self, lo: int, hi: int) -> dict[str, float]:
        """Per-name self time of spans lo..hi-1: duration minus child durations."""
        child = defaultdict(float)
        for i in range(lo, hi):
            p = self.parents[i]
            if p >= lo:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(lo, hi):
            out[self.names[i]] += self.ends[i] - self.starts[i] - child[i]
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["span", "name", "start_s", "end_s", "parent"])
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                w.writerow([i, name, f"{self.starts[i] - t0:.9f}", f"{self.ends[i] - t0:.9f}",
                            self.parents[i]])

    # -- patching --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None, alloc: bool = False) -> None:
        """Replace owner.attr by a spanning wrapper; ``count(counts, args,
        kwargs, result)`` adds counts at the same boundary."""
        orig = getattr(owner, attr)
        tracer = self
        self.span_names.add(name)
        if alloc:
            self.alloc_peak[name] = max(self.alloc_peak[name], 0.0)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            if alloc:
                tracemalloc.start()
            try:
                result = orig(*args, **kwargs)
            finally:
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.alloc_peak[name] = max(tracer.alloc_peak[name], peak)
                tracer.close(idx)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions of every package layer."""
    from dynal import alengine, cli, datasets, netcore, tdhead, theorysim, tdtrack

    tracer.count_names |= {
        "netcore.forward_batch.calls", "netcore.forward_batch.rows", "netcore.grad_joint.calls",
        "tdhead.head_forward_batch.rows", "datasets.by_ids.calls", "cli.artifacts.bytes",
        "theorysim.simulate_discrete_ensemble.steps", "theorysim.integrate_ode.steps",
    }

    def calls(name):
        def f(c, a, k, r):
            c[name + ".calls"] += 1
        return f

    def rows_of(name, pos, arg, calls_too=False):
        tracer.count_names.add(name + ".rows")

        def f(c, a, k, r):
            if calls_too:
                c[name + ".calls"] += 1
            c[name + ".rows"] += len(_arg(a, k, pos, arg))
        return f

    def forward_counts(c, a, k, r):
        c["netcore.forward_batch.calls"] += 1
        c["netcore.forward_batch.rows"] += len(np.atleast_2d(_arg(a, k, 2, "X")))

    def head_counts(c, a, k, r):
        c["tdhead.head_forward_batch.rows"] += len(np.atleast_2d(_arg(a, k, 1, "taps")[0]))

    def artifact_bytes(c, a, k, r):
        c["cli.artifacts.bytes"] += os.path.getsize(_arg(a, k, 0, "path"))

    def sim_steps(c, a, k, r):
        c["theorysim.simulate_discrete_ensemble.steps"] += int(_arg(a, k, 0, "params").iterations)

    def ode_steps(c, a, k, r):
        dt, t_end = _arg(a, k, 1, "dt"), _arg(a, k, 2, "t_end")
        c["theorysim.integrate_ode.steps"] += int(round(t_end / dt))

    w = tracer.wrap
    w(netcore, "forward_batch", "netcore.forward_batch", forward_counts)
    w(netcore, "grad_joint", "netcore.grad_joint", calls("netcore.grad_joint"))
    w(netcore, "optimizer_step", "netcore.optimizer_step")
    w(netcore, "apply_update", "netcore.apply_update")
    w(tdhead, "head_forward_batch", "tdhead.head_forward_batch", head_counts)
    w(tdhead, "head_backward", "tdhead.head_backward")
    w(tdtrack.TDStore, "update_batch", "tdtrack.update_batch",
      rows_of("tdtrack.update_batch", 1, "sample_ids"))
    w(tdtrack.TDStore, "values", "tdtrack.values", rows_of("tdtrack.values", 1, "sample_ids"))
    w(alengine, "strategy_scores", "estimators.strategy_scores",
      rows_of("estimators.strategy_scores", 1, "sample_ids"))
    w(alengine, "select_top_k", "acquisition.select_top_k",
      rows_of("acquisition.select_top_k", 0, "scores"))
    w(alengine, "kcenter_greedy", "acquisition.kcenter_greedy",
      rows_of("acquisition.kcenter_greedy", 2, "unlabeled_ids"), alloc=True)
    w(datasets, "build_dataset", "datasets.build_dataset")
    w(cli, "build_dataset", "datasets.build_dataset")
    w(datasets.Dataset, "by_ids", "datasets.by_ids",
      rows_of("datasets.by_ids", 1, "wanted", calls_too=True))
    for fn in ("train_joint", "evaluate", "run_cycle", "run_pilot", "kl_analysis"):
        w(alengine, fn, "alengine." + fn)
    w(theorysim, "simulate_discrete_ensemble", "theorysim.simulate_discrete_ensemble", sim_steps)
    w(theorysim, "integrate_ode", "theorysim.integrate_ode", ode_steps)
    w(cli, "parse_config", "cli.parse_config")
    for fn in ("save_results_csv", "save_scores_csv", "save_kl_csv", "save_csv"):
        w(cli, fn, "cli.artifacts", artifact_bytes)
    w(theorysim, "save_trajectory_csv", "cli.artifacts", artifact_bytes)
