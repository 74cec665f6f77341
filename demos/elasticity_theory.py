#!/usr/bin/env python3
"""The theory behind dynamics-aware uncertainty, run numerically.

Both parts read ``configs/theory.yaml``, the config of ``dynal
theory-sde`` and ``dynal theory-closed-form``.

Part 1 simulates true-label logits under sample-level local elasticity:
one training draw per step pulls every sample's logit up, strongest
within the easy cluster.  The group-averaged stochastic paths track a
3-variable linear ODE, and the easy-minus-hard gap grows monotonically:
easy samples converge faster, so their trajectory carries information
the final snapshot has already forgotten.

Part 2 evaluates the closed forms for entropy and margin of a
probability vector with mass s_y on the true class and the rest spread
evenly.  Above s_y = 1/2, entropy falls and margin rises in s_y, so
either estimator read off the mean trajectory orders samples by how
fast they converged.
"""

from pathlib import Path

from dynal.cli import parse_config
from dynal.estimators import entropy, margin
from dynal.theorysim import (
    convergence_gap,
    integrate_ode,
    s_vector,
    simulate_discrete_ensemble,
    theorem2_entropy,
    theorem2_margin,
)

th = parse_config(Path(__file__).resolve().parents[1] / "configs" / "theory.yaml").theory

# --- Part 1: stochastic dynamics vs averaged ODE --------------------------

params = th.elasticity_params(seed=0)
times, ode = integrate_ode(params, th.dt, th.t_end)
ens = simulate_discrete_ensemble(params, th.n_runs)
mean_disc = ens.mean(axis=0)

print(f"time | ODE gap | mean stochastic gap ({th.n_runs} runs)")
for t in (0.5, 1.0, 2.0, 3.0, 5.0):
    k = int(round(t / th.dt))
    g_ode = convergence_gap(ode)[k]
    g_disc = convergence_gap(mean_disc)[k]
    print(f"{t:4.1f} | {g_ode:7.4f} | {g_disc:7.4f}")

slope0 = (convergence_gap(ode)[1] - convergence_gap(ode)[0]) / th.dt
print(f"\ninitial gap growth rate: {slope0:.6f} "
      f"(= group share 1/3 x elasticity difference 0.5 x initial logit 1)")

# --- Part 2: closed-form entropy and margin -------------------------------

print("\ns_y  | entropy(C=10) | margin(C=10) | matches generic estimators?")
for s in th.sy_values[::2]:  # every other point of the closed-form grid
    e, m = theorem2_entropy(s, 10), theorem2_margin(s, 10)
    v = s_vector(s, 10)
    ok = abs(e - entropy(v)) < 1e-12 and abs(m - margin(v, 0)) < 1e-12
    print(f"{s:.2f} | {e:13.6f} | {m:12.6f} | {ok}")

print("\nentropy decreasing + margin increasing in s_y means a slower-converging")
print("sample (smaller s_y) always looks more uncertain under either score.")
