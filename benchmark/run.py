#!/usr/bin/env python3
"""dynal benchmark: one workload per call, every metric printed by name.

    python3 benchmark/run.py --workload al_shipped --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  The workload's configs are made from
``--seed`` and written under ``.bench_work/<workload>/``; the program
(``src/dynal`` of the same checkout) only sees those.  Set-up is measured
in fresh processes, several times, and reported as the median.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.

``--write-reference`` stores this run's artifact fingerprint as the
reference for (workload, seed); ``python3 benchmark/reference.py``
regenerates all of them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
BLAS_THREADS = "1"      # one thread of control per workload process
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS  # before numpy is first imported, here and in children

import speed  # noqa: E402
import workloads  # noqa: E402

REFERENCE = HERE / "reference_fingerprints.json"
SETUP_SAMPLES = 3       # fresh processes timed from start to first operation
TIME_LIMIT_S = 170.0    # whole run, set-up samples included


def fail(msg: str) -> int:
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def write_configs(work: Path, workload: str, seed: int) -> None:
    import yaml

    for name, cfg in workloads.configs(workload, seed).items():
        (work / f"{name}.yaml").write_text(yaml.safe_dump(cfg, sort_keys=False))


def compare_reference(workload: str, seed: int, fp: dict[str, str], write: bool) -> None:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name, digest in sorted(fp.items()):
        print(f"fingerprint {workload} seed={seed} {digest} {name}")
    if write:
        refs.setdefault(workload, {})[str(seed)] = fp
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"fingerprint: wrote the reference for {workload} seed={seed}")
        return
    ref = refs.get(workload, {}).get(str(seed))
    if ref is None:
        print(f"fingerprint: no reference for {workload} seed={seed}")
        return
    differ = sorted(k for k in fp.keys() | ref.keys() if fp.get(k) != ref.get(k))
    if differ:
        print(f"fingerprint: {len(differ)} artifacts differ from the reference: {', '.join(differ)}")
    else:
        print(f"fingerprint: all {len(fp)} artifacts match the reference")


def metrics_from(result: dict, setup: list[float], work: dict[str, int]) -> dict[str, float]:
    run_s = result["run_s"]
    return {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "cycle_p50_s": result["cycle_p50_s"],
        "train_steps_per_s": work["train_steps"] / run_s,
        "scored_per_s": work["scored"] / run_s,
        "sim_steps_per_s": work["sim_steps"] / run_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    t_begin = time.monotonic()

    if not (ROOT / "src" / "dynal" / "__init__.py").is_file():
        return fail(f"no dynal sources under {ROOT / 'src'}; run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    write_configs(work, args.workload, args.seed)

    # One core for the whole run, so that probes and work share its speed.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]

    def remaining() -> float:
        return TIME_LIMIT_S - (time.monotonic() - t_begin)

    # Set-up: a fresh process from its start to its first operation, in
    # reference seconds from the probes taken just before and after it.
    setup = []
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        before = speed.probe()
        t0 = time.monotonic()
        try:
            out = subprocess.run(cmd + ["--setup-only"], env=env, stdout=subprocess.PIPE,
                                 timeout=remaining(), check=True, text=True).stdout
        except (subprocess.SubprocessError, ValueError) as e:
            return fail(f"set-up process failed: {e}")
        ready = json.loads(out.strip().splitlines()[-1])["ready"]
        setup.append((ready - t0) * speed.REFERENCE_PROBE_S / ((before + speed.probe()) / 2))

    sys.stdout.flush()
    try:
        subprocess.run(cmd, env=env, timeout=max(remaining(), 1.0), check=True)
        result = json.loads((work / "result.json").read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as e:
        return fail(f"workload process failed: {e}")

    for p in result["problems"]:
        print(f"check {args.workload}: FAILED {p}")
    compare_reference(args.workload, args.seed, result["fingerprint"],
                      args.write_reference and not result["problems"])
    print(f"rounds={result['rounds']} cycles={result['n_cycles']} setup_samples={len(setup)} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print("round wall s " + " ".join(f"{t:.3f}" for t in result["round_wall_s"])
          + " | set-up ref s " + " ".join(f"{t:.3f}" for t in setup)
          + f" | probe us min {min(result['probe_s']) * 1e6:.1f} max {max(result['probe_s']) * 1e6:.1f}")

    if args.trace:
        values = result["layers"]
    else:
        cfgs = workloads.configs(args.workload, args.seed)
        values = metrics_from(result, setup, workloads.round_work(args.workload, cfgs,
                                                                  result["n_train"]))
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            return fail(f"metric {m['name']} was not measured")
        v = float(values[m["name"]])
        if not math.isfinite(v):
            return fail(f"metric {m['name']} is {v}")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    if args.trace:
        print(f"trace: overhead {values['trace.overhead_s']:.3f} s per round "
              f"({values['trace.round_s']:.3f} s traced, {values['trace.untraced_round_s']:.3f} s not)")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
