"""Output checks for each workload.

Every check compares the program's outputs with a computation made here,
apart from the program, or with a property the method must have.  Each
workload's function prints one PASS/FAIL line per check and returns the
failed ones.  Checks look only at the artifacts of operations that
succeeded; failed operations are counted by the worker, not here.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

import workloads as wl

ENTROPY_FLOOR = 1e-12  # probabilities are floored here before any log


class Report:
    def __init__(self, workload: str):
        self.workload = workload
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        print(f"check {self.workload}: {'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            self.problems.append(what)

    def skip(self, what: str) -> None:
        """A check with nothing to look at: every operation it needs failed."""
        print(f"check {self.workload}: SKIP {what} (its operations failed)")


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def oriented(strategy: str, scores: np.ndarray) -> np.ndarray:
    """Uncertainty with higher = more uncertain: entropy as is, margins and
    probabilities negated."""
    return scores if strategy.endswith("entropy") else -scores


def top_k(ids: np.ndarray, u: np.ndarray, k: int) -> np.ndarray:
    """The k most uncertain ids, most uncertain first, lowest id on ties."""
    return ids[np.lexsort((ids, -u))[:k]]


def same_selection(selected, ids: np.ndarray, u: np.ndarray, k: int, tol: float = 1e-12) -> bool:
    """Selected ids equal the top-k, allowing swaps only among scores that
    tie with the k-th within ``tol`` (a last-bit difference in summation)."""
    expect = top_k(ids, u, k)
    if list(map(int, selected)) == list(map(int, expect)):
        return True
    kth = u[np.lexsort((ids, -u))[k - 1]]
    by_id = dict(zip(ids.tolist(), u.tolist()))
    diff = set(map(int, selected)) ^ set(map(int, expect))
    return len(set(map(int, selected))) == k and all(abs(by_id[i] - kth) <= tol for i in diff)


def check_results_csvs(rep: Report, rd: Path, al: dict, strategies, seeds):
    """labeled_count = initial + cycle * budget, accuracy in [0, 1].

    Returns the result rows and the (strategy, seed) runs that wrote them.
    """
    done = [(s, k) for s in strategies for k in seeds if (rd / f"results_{s}_seed{k}.csv").exists()]
    rows = [r for s, k in done for r in read_csv(rd / f"results_{s}_seed{k}.csv")]
    counts_ok = all(
        int(r["labeled_count"]) == al["initial_labeled"] + int(r["cycle"]) * al["budget_per_cycle"]
        for r in rows
    )
    cycles_ok = len(rows) == len(done) * al["n_cycles"]
    rep.check(counts_ok and cycles_ok,
              f"{len(rows)} result rows, labeled_count = initial + cycle x budget")
    accs = [float(r["test_accuracy"]) for r in rows]
    rep.check(all(0.0 <= a <= 1.0 for a in accs), "every test accuracy in [0, 1]")
    return rows, done


def true_means(spec: dict) -> np.ndarray:
    """Class means of the Gaussian mixture, drawn as its definition says:
    unit directions from the spec's seed, scaled to the radius."""
    rng = np.random.default_rng(spec["seed"])
    dirs = rng.normal(size=(spec["n_classes"], spec["dim"]))
    return spec["radius"] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def al_shipped(ctx, rd: Path) -> list[str]:
    rep = Report("al_shipped")
    raw = ctx.raw["al"]
    al = raw["al"]
    rows, done = check_results_csvs(rep, rd, al, wl.AL_SHIPPED_STRATEGIES, wl.AL_SHIPPED_SEEDS)

    means = true_means(raw["dataset"])
    X, y = ctx.test.X, ctx.test.y
    d2 = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    oracle = float((d2.argmin(axis=1) == y).mean())
    final = [float(r["test_accuracy"]) for r in rows
             if r["strategy"] == "random" and int(r["cycle"]) == al["n_cycles"]]
    if final:
        rep.check(np.mean(final) <= oracle,
                  f"random final accuracy {np.mean(final):.4f} <= nearest-true-mean {oracle:.4f}")
    else:
        rep.skip("random final accuracy <= nearest-true-mean")

    n_dumps = n_same = 0
    for s, k in done:
        if s in wl.SCORE_STRATEGIES:
            for c in range(1, al["n_cycles"] + 1):
                dump = read_csv(rd / f"scores_{s}_seed{k}_cycle{c}.csv")
                ids = np.array([int(r["sample_id"]) for r in dump])
                u = oriented(s, np.array([float(r["score"]) for r in dump]))
                chosen = {int(r["sample_id"]) for r in dump if r["selected"] == "1"}
                expect = set(top_k(ids, u, al["budget_per_cycle"]).tolist())
                n_dumps += 1
                n_same += chosen == expect and len(dump) == al["subset_size"]
    rep.check(n_same == n_dumps,
              f"selections equal lexsort top-k of the dumped scores in {n_same}/{n_dumps} cycles")
    return rep.problems


def _pool_probs(res, X):
    from dynal import netcore, tdhead

    bt = netcore.forward_batch(res.net, res.net_cfg, X)
    return bt.probs, tdhead.head_forward_batch(res.head, bt.taps)[0]


def recompute_scores(strategy: str, p_cls: np.ndarray, p_mod: np.ndarray) -> np.ndarray:
    """Entropy, margin and probability scores, vectorised, oriented."""
    if strategy.startswith("snapshot"):
        p_mod = p_cls
    if strategy.endswith("entropy"):
        return -(p_mod * np.log(np.maximum(p_mod, ENTROPY_FLOOR))).sum(axis=1)
    rows = np.arange(len(p_cls))
    y_hat = p_cls.argmax(axis=1)
    at = p_mod[rows, y_hat]
    if strategy.endswith("prob"):
        return -at
    others = p_mod.copy()
    others[rows, y_hat] = -np.inf
    return -(at - others.max(axis=1))


def farthest_point(lab: np.ndarray, unl: np.ndarray, ids: np.ndarray, k: int,
                   chunk: int = 256) -> list[int]:
    """Greedy k-center (Sener & Savarese 2018) with distances made chunk by
    chunk; ties go to the lowest id."""
    order = np.argsort(ids, kind="stable")
    unl, ids = unl[order], ids[order]
    n = len(ids)
    dist = np.empty(n)
    for lo in range(0, n, chunk):
        d2 = ((unl[lo:lo + chunk, None, :] - lab[None, :, :]) ** 2).sum(axis=2)
        dist[lo:lo + chunk] = np.sqrt(d2.min(axis=1))
    picked = np.zeros(n, dtype=bool)
    out = []
    for _ in range(min(k, n)):
        i = int(np.argmax(np.where(picked, -np.inf, dist)))
        out.append(int(ids[i]))
        picked[i] = True
        dist = np.minimum(dist, np.sqrt(((unl - unl[i]) ** 2).sum(axis=1)))
    return out


def al_large_pool(ctx, rd: Path) -> list[str]:
    rep = Report("al_large_pool")
    score_al, coreset_al = ctx.raw["score"]["al"], ctx.raw["coreset"]["al"]
    _, score_done = check_results_csvs(rep, rd / "score", score_al, wl.LARGE_SCORE_STRATEGIES,
                                       wl.LARGE_SEEDS)
    _, coreset_done = check_results_csvs(rep, rd / "coreset", coreset_al, ["coreset"],
                                         wl.LARGE_SEEDS)

    n_score = n_same = 0
    for args, _, result in ctx.cycles:
        pool_ids, train, cfg = args[1], args[2], args[4]
        strategy = cfg.strategy.value
        if strategy not in wl.SCORE_STRATEGIES:
            continue
        n_score += 1
        if cfg.subset_size < len(pool_ids):
            continue
        order = np.argsort(train.ids)
        rows = order[np.searchsorted(train.ids, pool_ids, sorter=order)]
        p_cls, p_mod = _pool_probs(result[0], train.X[rows])
        u = recompute_scores(strategy, p_cls, p_mod)
        n_same += same_selection(result[1].selected_ids, np.asarray(pool_ids), u,
                                 cfg.budget_per_cycle)
    # A run that failed may have finished some cycles; those are checked too.
    rep.check(n_score >= len(score_done) * score_al["n_cycles"] and n_same == n_score,
              f"whole-pool selections equal top-k of recomputed scores in {n_same}/{n_score} cycles")

    n_kc = sum(farthest_point(np.asarray(a[0]), np.asarray(a[1]), np.asarray(a[2]), a[3]) == list(r)
               for a, _, r in ctx.kcenter)
    rep.check(len(ctx.kcenter) >= len(coreset_done) * coreset_al["n_cycles"]
              and n_kc == len(ctx.kcenter),
              f"coreset selections equal chunked farthest-point greedy in {n_kc}/{len(ctx.kcenter)}")
    return rep.problems


def pairwise_auroc(u: np.ndarray, is_minor: np.ndarray) -> float:
    """Share of (minor, major) pairs where the minor sample is more
    uncertain, ties counted half."""
    pos, neg = u[is_minor], u[~is_minor]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (len(pos) * len(neg)))


def pilot_kl(ctx, rd: Path) -> list[str]:
    rep = Report("pilot_kl")
    minor = ctx.raw["pilot"]["dataset"]["imbalance"]["minor_classes"]
    label = dict(zip(ctx.train.ids.tolist(), ctx.train.y.tolist()))
    aurocs: dict[str, list[float]] = {}
    worst = 0.0
    complete = True
    pilot_done = [s for s in wl.PILOT_SEEDS if (rd / f"pilot_seed{s}" / "pilot_auroc.csv").exists()]
    for s in pilot_done:
        by_est: dict[str, list[tuple[int, float]]] = {}
        for r in read_csv(rd / f"pilot_seed{s}" / f"scores_pilot_seed{s}.csv"):
            by_est.setdefault(r["strategy"], []).append((int(r["sample_id"]), float(r["score"])))
        for r in read_csv(rd / f"pilot_seed{s}" / "pilot_auroc.csv"):
            pairs = by_est[r["estimator"]]
            complete &= sorted(i for i, _ in pairs) == sorted(label)
            u = oriented(r["estimator"], np.array([v for _, v in pairs]))
            is_minor = np.isin([label[i] for i, _ in pairs], minor)
            worst = max(worst, abs(pairwise_auroc(u, is_minor) - float(r["auroc"])))
            aurocs.setdefault(r["estimator"], []).append(float(r["auroc"]))
    if pilot_done:
        rep.check(complete and worst <= 1e-12 and len(aurocs) == 6,
                  f"pilot_auroc.csv equals pairwise Mann-Whitney counts (max diff {worst:.1e})")
        m = {k: float(np.mean(v)) for k, v in aurocs.items()}
        rep.check(m.get("td_entropy", 0) > m.get("snapshot_entropy", 1)
                  and m.get("td_margin", 0) > m.get("snapshot_margin", 1),
                  "mean AUROC td_entropy {:.3f} > snapshot {:.3f}, td_margin {:.3f} > snapshot {:.3f}"
                  .format(m.get("td_entropy", 0), m.get("snapshot_entropy", 0),
                          m.get("td_margin", 0), m.get("snapshot_margin", 0)))
    else:
        rep.skip("pilot AUROC checks")

    kl_done = [s for s in wl.PILOT_SEEDS if (rd / "kl" / f"kl_seed{s}.csv").exists()]
    wins = 0
    epochs_ok = True
    for s in kl_done:
        rows = read_csv(rd / "kl" / f"kl_seed{s}.csv")
        epochs_ok &= len(rows) == ctx.raw["pilot"]["pilot"]["epochs"]
        wins += float(rows[-1]["kl_module"]) < float(rows[-1]["kl_snapshot"])
    # At least 4 of 5 seeds: one loss allowed among the seeds that ran.
    if kl_done:
        rep.check(epochs_ok and wins >= len(kl_done) - 1,
                  f"module KL < snapshot KL at the final epoch in {wins}/{len(kl_done)} seeds")
    else:
        rep.skip("module KL < snapshot KL")
    return rep.problems


def theory(ctx, rd: Path) -> list[str]:
    rep = Report("theory")
    th = ctx.raw["theory"]["theory"]
    ode = None
    if (rd / "sde" / "trajectory_ode.csv").exists():
        sizes = np.array([th["n_1e"], th["n_1h"], th["n_2"]], dtype=float)
        ae, ah, b = th["alpha_e"], th["alpha_h"], th["beta"]
        E = np.array([[ae, ah, b], [ah, ah, b], [b, b, ae]])
        step = np.eye(3) + th["dt"] * E * (sizes / sizes.sum())[None, :]
        x0 = np.array(th["x0"], dtype=float)
        ode = np.array([[float(r[c]) for c in ("xbar_1e", "xbar_1h", "xbar_2", "gap")]
                        for r in read_csv(rd / "sde" / "trajectory_ode.csv")])
        n_steps = int(round(th["t_end"] / th["dt"]))
        exact = np.array([np.linalg.matrix_power(step, k) @ x0 for k in range(n_steps + 1)])
        rel = (float(np.max(np.abs(ode[:, :3] - exact) / np.abs(exact)))
               if len(ode) == len(exact) else np.inf)
        rep.check(rel <= 1e-9 and np.array_equal(ode[:, 3], ode[:, 0] - ode[:, 1]),
                  f"trajectory_ode.csv equals (I + dt A)^k x0 (max rel diff {rel:.1e})")
        slope = (ode[1, 3] - ode[0, 3]) / th["dt"]
        rep.check(abs(slope - 1.0 / 6.0) <= 1e-6, f"initial gap slope {slope:.9f} = 1/6 +- 1e-6")
    else:
        rep.skip("ODE trajectory and initial slope")

    sde = [rd / "sde" / f"trajectory_sde_seed{s}.csv" for s in wl.theory_sde_seeds(ctx.seed)]
    sde_rows = [len(read_csv(p)) for p in sde if p.exists()]
    rep.check(all(n == th["iterations"] + 1 for n in sde_rows),
              f"{len(sde_rows)} SDE trajectories with iterations + 1 rows")

    if ctx.ensemble is None or ode is None:
        rep.skip("ensemble mean gap against the ODE")
    else:
        mean = ctx.ensemble.mean(axis=0)
        k1 = int(round(1.0 / th["step_size"]))
        ode_gap = ode[int(round(1.0 / th["dt"])), 3]
        rel_gap = abs(mean[k1, 0] - mean[k1, 1] - ode_gap) / ode_gap
        rep.check(rel_gap < 0.05,
                  f"{wl.ENSEMBLE_RUNS}-replica mean gap at t=1 within 5% of the ODE ({rel_gap:.2%})")

    if (rd / "closed_form" / "closed_form.csv").exists():
        worst = 0.0
        rows = read_csv(rd / "closed_form" / "closed_form.csv")
        for r in rows:
            s_y, C = float(r["s_y"]), int(r["n_classes"])
            v = np.full(C, (1.0 - s_y) / (C - 1))
            v[0] = s_y
            ent = float(-(v * np.log(v)).sum())
            mar = float(v[0] - v[1:].max())
            worst = max(worst, abs(ent - float(r["entropy"])), abs(mar - float(r["margin"])))
        n_grid = len(th["sy_values"]) * len(th["classes"])
        rep.check(len(rows) == n_grid and worst <= 1e-12,
                  f"closed_form.csv matches entropy and margin of the s-vector (max diff {worst:.1e})")
    else:
        rep.skip("closed_form.csv")
    return rep.problems


CHECKS = {
    "al_shipped": al_shipped,
    "al_large_pool": al_large_pool,
    "pilot_kl": pilot_kl,
    "theory": theory,
}
