#!/usr/bin/env python3
"""The theory behind dynamics-aware uncertainty, run numerically.

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

from dynal.estimators import entropy, margin
from dynal.theorysim import (
    ElasticityParams,
    convergence_gap,
    integrate_ode,
    s_vector,
    simulate_discrete_ensemble,
    theorem2_entropy,
    theorem2_margin,
)

# --- Part 1: stochastic dynamics vs averaged ODE --------------------------

params = ElasticityParams(
    n_1e=10, n_1h=10, n_2=10, alpha_e=1.0, alpha_h=0.5, beta=0.1,
    step_size=1e-3, noise=0.0, x0=(1.0, 1.0, 1.0), iterations=5000, seed=0,
)
times, ode = integrate_ode(params, dt=1e-3, t_end=5.0)
ens = simulate_discrete_ensemble(params, n_runs=200)
mean_disc = ens.mean(axis=0)

print("time | ODE gap | mean stochastic gap (200 runs)")
for t in (0.5, 1.0, 2.0, 3.0, 5.0):
    k = int(round(t / 1e-3))
    g_ode = convergence_gap(ode)[k]
    g_disc = convergence_gap(mean_disc)[k]
    print(f"{t:4.1f} | {g_ode:7.4f} | {g_disc:7.4f}")

slope0 = (convergence_gap(ode)[1] - convergence_gap(ode)[0]) / 1e-3
print(f"\ninitial gap growth rate: {slope0:.6f} "
      f"(= group share 1/3 x elasticity difference 0.5 x initial logit 1)")

# --- Part 2: closed-form entropy and margin -------------------------------

print("\ns_y  | entropy(C=10) | margin(C=10) | matches generic estimators?")
for s in (0.55, 0.65, 0.75, 0.85, 0.95):
    e, m = theorem2_entropy(s, 10), theorem2_margin(s, 10)
    v = s_vector(s, 10)
    ok = abs(e - entropy(v)) < 1e-12 and abs(m - margin(v, 0)) < 1e-12
    print(f"{s:.2f} | {e:13.6f} | {m:12.6f} | {ok}")

print("\nentropy decreasing + margin increasing in s_y means a slower-converging")
print("sample (smaller s_y) always looks more uncertain under either score.")
