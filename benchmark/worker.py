"""The measured process of one workload: set up, run rounds, check outputs.

run.py starts this file once per set-up sample (``--setup-only``) and once
for the run itself.  The run repeats whole rounds of the workload's
operations until ``--seconds`` have passed, and at least MIN_ROUNDS times:
a median needs three values, and repeated rounds at one seed must write
byte-identical artifacts.  It then checks the last round's outputs and
writes ``result.json`` into the work directory.

Each round is timed in units: every ``alengine.run_cycle`` call on the AL
workloads, every operation elsewhere, plus the rest of the round.  A unit's
wall time is scaled to reference seconds by the speed probe taken next to
it (see speed.py).  A unit recurs in the same place in every round, so its
median over rounds discards rounds that a busy machine disturbed, unit by
unit; a round's time is the sum of those medians.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as wl  # noqa: E402

MIN_ROUNDS = 3
MIN_ROUNDS_TRACED = 5  # untraced and traced rounds alternate; round 0 warms up


def round_time(rounds: list[dict]) -> float:
    """One round in reference seconds: per unit, the median over rounds."""
    return sum(statistics.median(u) for u in zip(*(x["units"] for x in rounds)))


class Context:
    """Inputs of one run (parsed configs, datasets built in set-up), the
    speed clock, and what the current round captured."""

    def __init__(self, workload: str, seed: int, work: Path):
        from dynal import cli, datasets

        self.workload, self.seed, self.work = workload, seed, work
        self.raw = wl.configs(workload, seed)
        self.cfg_paths = {name: str(work / f"{name}.yaml") for name in self.raw}
        self.cfgs = {name: cli.parse_config(p) for name, p in self.cfg_paths.items()}
        first = next(iter(self.cfgs.values()))
        self.train = self.test = None
        if workload != "theory":
            self.train, self.test = datasets.build_dataset(first.dataset)
        self.clock = None
        self.reset_captures()

    def reset_captures(self) -> None:
        self.cycles: list[tuple] = []      # (args, kwargs, result) of alengine.run_cycle
        self.kcenter: list[tuple] = []     # (args, kwargs, result) of kcenter_greedy
        self.cycle_spans: list[tuple[float, float]] = []
        self.op_spans: list[tuple[float, float]] = []
        self.ensemble = None

    def timed(self, spans, fn, *args, **kwargs):
        """Call fn between a speed probe and its own span."""
        self.clock.probe()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans.append((t0, time.perf_counter()))


class Captures:
    """Wrappers that time every alengine.run_cycle call and keep the
    arguments and results of it and of kcenter_greedy for the output
    checks.  They are installed outermost, so that the speed probe they
    take stays outside every traced span."""

    def __init__(self, ctx: Context):
        from dynal import alengine

        self.alengine = alengine
        self.originals = (alengine.run_cycle, alengine.kcenter_greedy)
        self.ctx = ctx

    def install(self) -> None:
        ctx, alengine = self.ctx, self.alengine
        run_cycle, kcenter = alengine.run_cycle, alengine.kcenter_greedy

        def cycle(*args, **kwargs):
            result = ctx.timed(ctx.cycle_spans, run_cycle, *args, **kwargs)
            ctx.cycles.append((args, kwargs, result))
            return result

        def kcenter_greedy(*args, **kwargs):
            result = kcenter(*args, **kwargs)
            ctx.kcenter.append((args, kwargs, result))
            return result

        alengine.run_cycle, alengine.kcenter_greedy = cycle, kcenter_greedy

    def remove(self) -> None:
        self.alengine.run_cycle, self.alengine.kcenter_greedy = self.originals


def _cli(ctx: Context, argv: list[str]) -> None:
    from dynal import cli

    rc = ctx.timed(ctx.op_spans, cli.main, argv)
    if rc != 0:
        print(f"operation failed (exit {rc}): dynal {' '.join(argv)}", file=sys.stderr)


def _missing(paths) -> int:
    return sum(not p.exists() for p in paths)


# Each round function runs every operation once into ``rd`` and returns
# (attempted, failed).

def round_al_shipped(ctx: Context, rd: Path):
    strategies, seeds = wl.AL_SHIPPED_STRATEGIES, wl.AL_SHIPPED_SEEDS
    _cli(ctx, ["al-run", "--config", ctx.cfg_paths["al"], "--out", str(rd),
               "--seeds", ",".join(map(str, seeds)), "--strategies", ",".join(strategies)])
    expected = [rd / f"results_{s}_seed{k}.csv" for s in strategies for k in seeds]
    return len(expected), _missing(expected)


def round_al_large_pool(ctx: Context, rd: Path):
    seeds = ",".join(map(str, wl.LARGE_SEEDS))
    expected = []
    for name, strategies in (("score", wl.LARGE_SCORE_STRATEGIES), ("coreset", ["coreset"])):
        out = rd / name
        _cli(ctx, ["al-run", "--config", ctx.cfg_paths[name], "--out", str(out),
                   "--seeds", seeds, "--strategies", ",".join(strategies)])
        expected += [out / f"results_{s}_seed{k}.csv" for s in strategies for k in wl.LARGE_SEEDS]
    return len(expected), _missing(expected)


def round_pilot_kl(ctx: Context, rd: Path):
    failed = 0
    for s in wl.PILOT_SEEDS:
        out = rd / f"pilot_seed{s}"
        _cli(ctx, ["pilot", "--config", ctx.cfg_paths["pilot"], "--out", str(out),
                   "--seeds", str(s)])
        failed += _missing([out / f"scores_pilot_seed{s}.csv", out / "pilot_auroc.csv"]) > 0
    for s in wl.PILOT_SEEDS:
        out = rd / "kl"
        _cli(ctx, ["kl-analysis", "--config", ctx.cfg_paths["pilot"], "--out", str(out),
                   "--seeds", str(s), "--analysis"])
        failed += _missing([out / f"kl_seed{s}.csv"])
    return 2 * len(wl.PILOT_SEEDS), failed


def round_theory(ctx: Context, rd: Path):
    from dynal import theorysim

    sde_seeds = wl.theory_sde_seeds(ctx.seed)
    path = ctx.cfg_paths["theory"]
    _cli(ctx, ["theory-sde", "--config", path, "--out", str(rd / "sde"),
               "--seeds", ",".join(map(str, sde_seeds))])
    expected = [rd / "sde" / f"trajectory_sde_seed{s}.csv" for s in sde_seeds]
    expected.append(rd / "sde" / "trajectory_ode.csv")
    _cli(ctx, ["theory-closed-form", "--config", path, "--out", str(rd / "closed_form")])
    expected.append(rd / "closed_form" / "closed_form.csv")
    failed = _missing(expected)

    params = ctx.cfgs["theory"].theory.elasticity_params(ctx.seed)
    try:
        ctx.ensemble = ctx.timed(ctx.op_spans, theorysim.simulate_discrete_ensemble,
                                 params, wl.ENSEMBLE_RUNS)
    except Exception as e:  # counted as a failed operation; the run goes on
        print(f"operation failed: simulate_discrete_ensemble: {e!r}", file=sys.stderr)
        failed += 1
    return len(expected) + 1, failed


ROUNDS = {
    "al_shipped": round_al_shipped,
    "al_large_pool": round_al_large_pool,
    "pilot_kl": round_pilot_kl,
    "theory": round_theory,
}


def fingerprint(ctx: Context, rd: Path) -> dict[str, str]:
    """SHA-256 of every artifact of a round, by path relative to the round."""
    out = {}
    for p in sorted(rd.rglob("*")):
        if p.is_file():
            out[p.relative_to(rd).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    if ctx.ensemble is not None:
        out["ensemble_group_means.f64"] = hashlib.sha256(ctx.ensemble.tobytes()).hexdigest()
    return out


def trace_metrics(tracer, setup, rounds) -> dict[str, float]:
    """Per-layer values for one set-up plus one round (the mean of the traced rounds)."""
    vals: dict[str, float] = {}
    self_setup = tracer.self_times(*setup[:2])
    selfs = [tracer.self_times(lo, hi) for lo, hi, _ in rounds]
    for n in tracer.span_names:
        vals[n + ".self_s"] = self_setup.get(n, 0.0) + statistics.fmean(s.get(n, 0.0) for s in selfs)
    for n in tracer.count_names:
        per_round = {c.get(n, 0) for _, _, c in rounds}
        if len(per_round) != 1:
            print(f"trace: count {n} differs between rounds: {sorted(per_round)}", file=sys.stderr)
        vals[n] = setup[2].get(n, 0) + max(per_round)
    for n, peak in tracer.alloc_peak.items():
        vals[n + ".alloc_peak_mb"] = peak
    return vals


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    work = Path(args.work)

    import numpy as np  # noqa: F401  (imports are part of set-up)

    import dynal

    if Path(dynal.__file__).resolve().parent != (ROOT / "src" / "dynal").resolve():
        raise SystemExit(f"dynal imported from {dynal.__file__}, not from this checkout")

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer_mod.install_layers(tracer)
    ctx = Context(args.workload, args.seed, work)
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    setup_phase = None
    if tracer is not None:
        setup_phase = (0, len(tracer.names), tracer.counts)
        tracer.uninstall()

    import speed

    clock = ctx.clock = speed.Clock()
    captures = Captures(ctx)
    captures.install()
    run_round = ROUNDS[args.workload]
    log = open(work / "program.log", "w")
    rounds: list[dict] = []
    attempted = failed = 0
    first_print = None
    nondeterministic: set[str] = set()
    t_start = time.perf_counter()
    while True:
        r = len(rounds)
        traced = tracer is not None and r % 2 == 1
        rd = work / f"round{r}"
        rd.mkdir()
        ctx.reset_captures()
        if traced:
            captures.remove()
            lo = tracer.begin_phase()
            tracer_mod.install_layers(tracer)
            captures.install()
        clock.probe(force=True)
        spent = clock.spent
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(log):
            a, f = run_round(ctx, rd)
        t1 = time.perf_counter()
        wall = t1 - t0 - (clock.spent - spent)  # probes excluded
        clock.probe(force=True)
        if traced:
            captures.remove()
            tracer.uninstall()
            captures.install()
            traced_phase = (lo, len(tracer.names), tracer.counts)
        # Units: each cycle (AL workloads) or operation, then the rest of the round.
        spans = ctx.cycle_spans or ctx.op_spans
        rest = wall - sum(e - s for s, e in spans)
        units = [(e - s) * clock.factor(s, e) for s, e in spans]
        units.append(rest * clock.mean_factor(t0, t1))
        rounds.append({"wall_s": wall, "units": units, "traced": traced,
                       "phase": traced_phase if traced else None})
        attempted += a
        failed += f
        fp = fingerprint(ctx, rd)
        if first_print is None:
            first_print = fp
        else:
            nondeterministic |= {k for k in fp.keys() | first_print.keys()
                                 if fp.get(k) != first_print.get(k)}
            shutil.rmtree(work / f"round{r - 1}")
        enough = MIN_ROUNDS_TRACED if tracer is not None else MIN_ROUNDS
        if len(rounds) >= enough and time.perf_counter() - t_start >= args.seconds:
            break
    log.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    problems: list[str] = []
    if nondeterministic:
        problems.append("artifacts differ between rounds: " + ", ".join(sorted(nondeterministic)))
    try:
        problems += checks.CHECKS[args.workload](ctx, rd)
    except Exception:
        problems.append("output check raised:\n" + traceback.format_exc())

    measured = [x for x in rounds if not x["traced"]]
    # Cycles (or operations) of a round, each as its median over rounds.
    cycles = [statistics.median(c) for c in zip(*(x["units"][:-1] for x in measured))]
    result = {
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "round_wall_s": [x["wall_s"] for x in rounds],
        "run_s": round_time(measured),
        "cycle_p50_s": statistics.median(cycles),
        "n_cycles": len(cycles) * len(measured),
        "probe_s": [v for _, v in clock.marks],
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "fingerprint": fp,
        "n_train": len(ctx.train) if ctx.train is not None else 0,
    }
    if tracer is not None:
        vals = trace_metrics(tracer, setup_phase, [x["phase"] for x in rounds if x["traced"]])
        vals["trace.round_s"] = round_time([x for x in rounds if x["traced"]])
        vals["trace.untraced_round_s"] = round_time(measured[1:])
        vals["trace.overhead_s"] = vals["trace.round_s"] - vals["trace.untraced_round_s"]
        result["layers"] = vals
        tracer.write_csv(work / "trace_spans.csv")
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
