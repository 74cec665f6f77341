"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``criterion N: PASS/FAIL`` line (run with ``-s`` to
see them live).  Configurations are pinned here; nothing is calibrated
at test time.
"""

import time

import numpy as np

from dynal import alengine, cli, netcore, tdhead, tdtrack, theorysim
from dynal.acquisition import kcenter_greedy, select_top_k
from dynal.alengine import ALConfig
from dynal.datasets import DatasetSpec, ImbalanceSpec, build_dataset, nearest_mean_predict
from dynal.estimators import StrategyKind, uncertainty
from dynal.netcore import NetConfig, OptimizerConfig
from dynal.theorysim import ElasticityParams, convergence_gap, integrate_ode

# ---------------------------------------------------------------- configs

PILOT_DATASET = DatasetSpec(
    generator="gaussian_mixture", n_classes=10, dim=16, per_class=120,
    radius=3.0, noise=1.2,
    imbalance=ImbalanceSpec(ratio=10, profile="step", minor_classes=[5, 6, 7, 8, 9]),
    test_fraction=1 / 6, seed=7,
)
PILOT_MINOR = [5, 6, 7, 8, 9]

SANITY_DATASET = DatasetSpec(
    generator="gaussian_mixture", n_classes=8, dim=12, per_class=300,
    radius=3.0, noise=1.1, test_fraction=1 / 3, seed=21,
)


def pilot_cfg(seed):
    return ALConfig(
        net=NetConfig(hidden_sizes=[32, 32], tap_layers=[0, 1], activation="relu"),
        opt=OptimizerConfig(kind="adam", initial_lr=1e-2, weight_decay=0.0,
                            decay_epoch=10**6, decay_factor=1.0),
        strategy=StrategyKind.RANDOM, initial_labeled=20, budget_per_cycle=20,
        subset_size=200, n_cycles=1, epochs=30, batch_size=32, lam=1.0, seed=seed,
    )


def sanity_cfg(strategy, seed):
    return ALConfig(
        net=NetConfig(hidden_sizes=[32, 32], tap_layers=[0, 1], activation="relu"),
        opt=OptimizerConfig(kind="sgd_momentum", initial_lr=0.03, momentum=0.9,
                            weight_decay=5e-4, decay_epoch=48, decay_factor=0.1),
        strategy=strategy, initial_labeled=20, budget_per_cycle=20, n_cycles=5,
        subset_size=200, epochs=60, batch_size=32, lam=1.0, seed=seed,
    )


def report(criterion, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"criterion {criterion}: {status} ({detail}; {elapsed:.1f}s < {limit:.0f}s)")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < limit, f"criterion {criterion} exceeded runtime: {elapsed:.1f}s"


# ------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_correctness(fd_grads, rel_err):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed + 100)
        activation = "tanh" if seed % 2 == 0 else "relu"
        cfg = NetConfig(hidden_sizes=[3], tap_layers=[0], activation=activation)
        net = netcore.init_net(cfg, 2, 2, seed)
        head = tdhead.init_head([3], 2, 4, seed + 1)
        X = rng.normal(size=(4, 2))
        y = rng.integers(0, 2, size=4)
        q = rng.dirichlet(np.ones(2), size=4)
        for lam in (0.0, 0.5, 1.0):
            grad, _, _ = netcore.grad_joint(net, cfg, head, X, y, q, lam=lam)

            def total():
                _, lt, lm = netcore.grad_joint(net, cfg, head, X, y, q, lam=lam)
                return lt + lam * lm

            fd = fd_grads(total, net.params() + head.params())
            worst = max(worst, rel_err([grad], [np.concatenate([g.ravel() for g in fd])]))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-4, f"max relative gradient error {worst:.2e} < 1e-4", elapsed, 10)


# ------------------------------------------------------------- criterion 2

def test_criterion_2_theorem2_suite():
    t0 = time.perf_counter()
    grid = [round(0.55 + 0.05 * i, 10) for i in range(9)]
    ok = True
    worst = 0.0
    for C in (2, 3, 10, 100):
        ents = [theorysim.theorem2_entropy(s, C) for s in grid]
        margs = [theorysim.theorem2_margin(s, C) for s in grid]
        ok &= all(a > b for a, b in zip(ents, ents[1:]))
        ok &= all(a < b for a, b in zip(margs, margs[1:]))
        for s, e, m in zip(grid, ents, margs):
            v = theorysim.s_vector(s, C)
            from dynal.estimators import entropy, margin

            worst = max(worst, abs(e - entropy(v)), abs(m - margin(v, 0)))
    ok &= worst <= 1e-12
    elapsed = time.perf_counter() - t0
    report(2, ok, f"monotone over grid, closed-form vs estimator gap {worst:.1e} <= 1e-12",
           elapsed, 1)


# ------------------------------------------------------------- criterion 3

def test_criterion_3_theorem1_suite():
    t0 = time.perf_counter()
    params = ElasticityParams(n_1e=10, n_1h=10, n_2=10, alpha_e=1.0, alpha_h=0.5,
                              beta=0.1, step_size=1e-3, noise=0.0,
                              x0=(1.0, 1.0, 1.0), iterations=1000, seed=0)
    dt = 1e-3
    _, traj = integrate_ode(params, dt, 5.0)
    gap = convergence_gap(traj)
    positive = bool(np.all(gap[1:] > 0))
    slope0 = (gap[1] - gap[0]) / dt
    slope_ok = abs(slope0 - 1.0 / 6.0) <= 1e-6

    ens = theorysim.simulate_discrete_ensemble(params, 200)
    disc_gap = convergence_gap(ens.mean(axis=0))[-1]          # t = 1000 * 1e-3 = 1
    ode_gap_at_1 = gap[int(round(1.0 / dt))]
    rel = abs(disc_gap - ode_gap_at_1) / ode_gap_at_1
    elapsed = time.perf_counter() - t0
    report(
        3,
        positive and slope_ok and rel < 0.05,
        f"gap>0 on (0,5], slope0={slope0:.8f} (=1/6±1e-6), discrete-vs-ODE {rel:.3%} < 5%",
        elapsed, 30,
    )


# ------------------------------------------------------------- criterion 4

def test_criterion_4_pilot_separation():
    t0 = time.perf_counter()
    train, _ = build_dataset(PILOT_DATASET)
    td_H, snap_H, td_M, snap_M = [], [], [], []
    for seed in range(5):
        pilot = alengine.run_pilot(train, pilot_cfg(seed), minor_classes=PILOT_MINOR)
        td_H.append(pilot.auroc["td_entropy"])
        snap_H.append(pilot.auroc["snapshot_entropy"])
        td_M.append(pilot.auroc["td_margin"])
        snap_M.append(pilot.auroc["snapshot_margin"])
    ok = np.mean(td_H) > np.mean(snap_H) and np.mean(td_M) > np.mean(snap_M)
    elapsed = time.perf_counter() - t0
    report(
        4, ok,
        f"entropy AUROC td={np.mean(td_H):.3f} > snap={np.mean(snap_H):.3f}; "
        f"margin AUROC td={np.mean(td_M):.3f} > snap={np.mean(snap_M):.3f}",
        elapsed, 300,
    )


# ------------------------------------------------------------- criterion 5

def test_criterion_5_kl_convergence():
    t0 = time.perf_counter()
    train, test = build_dataset(PILOT_DATASET)
    wins = 0
    finals = []
    for seed in range(5):
        rows = alengine.train_joint(train, pilot_cfg(seed), cycle=0, test=test).kl_rows
        _, kl_module, kl_snapshot = rows[-1]
        finals.append((kl_module, kl_snapshot))
        wins += kl_module < kl_snapshot
    elapsed = time.perf_counter() - t0
    mean_m = np.mean([f[0] for f in finals])
    mean_s = np.mean([f[1] for f in finals])
    report(5, wins >= 4,
           f"module KL < snapshot KL at final epoch in {wins}/5 seeds"
           f" (means {mean_m:.3f} vs {mean_s:.3f})", elapsed, 300)


# ------------------------------------------------------------- criterion 6

def test_criterion_6_al_sanity_band():
    t0 = time.perf_counter()
    train, test = build_dataset(SANITY_DATASET)
    oracle_acc = float((nearest_mean_predict(test.X, train.class_means) == test.y).mean())

    def final_accs(strategy):
        out = []
        for seed in range(10):
            cfg = sanity_cfg(strategy, seed)
            (reports,) = alengine.run_experiments(train, test, cfg, [cfg.strategy])
            if isinstance(reports, Exception):
                raise reports
            out.append(reports[-1].test_accuracy)
        return np.array(out)

    rand = final_accs(StrategyKind.RANDOM)
    tidal = final_accs(StrategyKind.TIDAL_ENTROPY)
    ok_a = rand.mean() <= oracle_acc
    ok_b = tidal.mean() >= rand.mean() - 0.02
    elapsed = time.perf_counter() - t0
    report(
        6, ok_a and ok_b,
        f"random={rand.mean():.3f} <= oracle={oracle_acc:.3f};"
        f" tidal={tidal.mean():.3f} >= random-0.02={rand.mean() - 0.02:.3f}",
        elapsed, 900,
    )


# ------------------------------------------------------------- criterion 7

def test_criterion_7_oracle_equivalences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)

    # top-k against a full-sort oracle, 1000 random score sets
    topk_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 50))
        ids = rng.permutation(5000)[:n]
        vals = np.round(rng.random(n), 2)
        name = "tidal_entropy" if rng.random() < 0.5 else "tidal_margin"
        k = int(rng.integers(1, n + 1))
        sign = -1.0 if name.endswith("entropy") else 1.0
        oracle = [sid for _, sid in sorted((sign * v, int(i)) for i, v in zip(ids, vals))][:k]
        topk_ok &= select_top_k(ids, uncertainty(name, vals), k).tolist() == oracle

    # k-center greedy against brute force, 100 instances with n <= 8
    def brute(labeled, unl, ids, k):
        remaining = {int(i): unl[j] for j, i in enumerate(ids)}
        covered = [labeled[j] for j in range(labeled.shape[0])]
        chosen = []
        if not covered:
            first = min(remaining)
            covered.append(remaining.pop(first))
            chosen.append(first)
        while len(chosen) < k and remaining:
            best_id, best_d = None, -1.0
            for sid in sorted(remaining):
                d = min(np.linalg.norm(remaining[sid] - c) for c in covered)
                if d > best_d:
                    best_id, best_d = sid, d
            covered.append(remaining.pop(best_id))
            chosen.append(best_id)
        return chosen

    kc_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 9))
        n_lab = int(rng.integers(0, 4))
        dim = int(rng.integers(1, 4))
        labeled = rng.normal(size=(n_lab, dim))
        unl = rng.normal(size=(n, dim))
        ids = rng.permutation(50)[:n]
        k = int(rng.integers(1, n + 1))
        kc_ok &= kcenter_greedy(labeled, unl, ids, k) == brute(labeled, unl, ids, k)

    # running mean against the naive batch mean, 100 random streams
    td_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 60))
        C = int(rng.integers(2, 8))
        vecs = rng.dirichlet(np.ones(C), size=n)
        store = tdtrack.TDStore(1, C)
        for v in vecs:
            with store.epoch([0]):
                store.update_batch(range(1), v[None, :])
        td_ok &= bool(np.abs(store.values([0])[0] - vecs.mean(axis=0)).max() <= 1e-12)

    elapsed = time.perf_counter() - t0
    report(7, topk_ok and kc_ok and td_ok,
           "top-k == sort oracle (1000), k-center == brute force (100),"
           " running mean == naive mean (100)", elapsed, 30)


# ------------------------------------------------------------- criterion 8

def test_criterion_8_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "dataset:\n"
        "  n_classes: 4\n  dim: 6\n  per_class: 50\n  radius: 3.0\n  noise: 0.9\n"
        "  test_fraction: 0.25\n  seed: 2\n"
        "net:\n  hidden_sizes: [16, 16]\n  tap_layers: [0, 1]\n"
        "optimizer:\n  kind: sgd_momentum\n  initial_lr: 0.05\n  decay_epoch: 10\n"
        "al:\n"
        "  initial_labeled: 12\n  budget_per_cycle: 8\n  n_cycles: 2\n  subset_size: 30\n"
        "  epochs: 12\n  batch_size: 16\n  dump_scores: true\n"
        "theory:\n  iterations: 300\n  t_end: 1.0\n"
    )
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        for command in ("al-run", "theory-sde", "theory-closed-form", "gen-data"):
            assert cli.main([command, "--config", str(cfg_path), "--out", str(out),
                             "--seeds", "0,1", "--strategies", "random,tidal_entropy"]) == 0
        outs.append(out)
    files1 = sorted(p.name for p in outs[0].iterdir())
    files2 = sorted(p.name for p in outs[1].iterdir())
    identical = files1 == files2 and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in files1
    )
    elapsed = time.perf_counter() - t0
    report(8, identical, f"{len(files1)} artifacts byte-identical across reruns", elapsed, 120)
