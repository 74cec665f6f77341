"""Local-elasticity logit dynamics: stochastic simulation and averaged ODE.

Three sample groups share one true-label logit each: easy class-1 (1e),
hard class-1 (1h), and class-2.  One training draw per step nudges every
sample's logit in proportion to a pairwise elasticity that is strongest
within easy/easy and class-2/class-2 pairs, weaker when a hard class-1
sample is involved, and weakest across classes.  Averaging the draws
yields three coupled linear ODEs; closed forms give the entropy and
margin of the induced mean-probability vector when all non-true classes
share the remaining mass equally.

Every simulation is one pass of one step loop, ``_simulate``:
``simulate_discrete_ensemble`` steps many replicas of one seed, and
``simulate_seeds`` one replica of each of several seeds, each with the
bits of that seed run alone.  The loop draws a buffer's steps at once and
then runs one update per step, whatever the noise: only the draws differ,
one draw of all the buffer's indices without noise, and each step's
indices and then its normals with it.  Memory stays near the returned
means plus two buffer-sized arrays, or three with noise.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .numutil import sum_first, write_csv

GROUP_EASY1, GROUP_HARD1, GROUP_CLASS2 = 0, 1, 2
# Floats of the simulations' logit buffer (512 KiB).
SIM_CHUNK_FLOATS = 2**16


@dataclass
class ElasticityModel:
    """The seedless elasticity model and its simulation length; checked when built."""

    n_1e: int = 10
    n_1h: int = 10
    n_2: int = 10
    alpha_e: float = 1.0
    alpha_h: float = 0.5
    beta: float = 0.1
    step_size: float = 1e-3
    noise: float = 0.0
    x0: list[float] = field(default_factory=lambda: [1.0, 1.0, 1.0])
    iterations: int = 1000

    def __post_init__(self):
        if min(self.n_1e, self.n_1h, self.n_2) < 1:
            raise ValueError("group sizes must be positive")
        if not (self.alpha_e > self.alpha_h > self.beta > 0):
            raise ValueError("elasticities must satisfy alpha_e > alpha_h > beta > 0")
        if not 0 < self.step_size < np.inf:
            raise ValueError("step_size must be positive and finite")
        if not 0 <= self.noise < np.inf:
            raise ValueError("noise must be nonnegative and finite")
        if len(self.x0) != 3 or not np.isfinite(self.x0).all():
            raise ValueError("x0 must be three finite group means")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    @property
    def n_total(self) -> int:
        return self.n_1e + self.n_1h + self.n_2

    def group_sizes(self) -> np.ndarray:
        return np.array([self.n_1e, self.n_1h, self.n_2])


@dataclass
class ElasticityParams(ElasticityModel):
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def elasticity_matrix(params: ElasticityModel) -> np.ndarray:
    """3x3 group-level elasticity; entry [g, g'] is the pull on a group-g
    sample when a group-g' sample is the training draw."""
    a_e, a_h, b = params.alpha_e, params.alpha_h, params.beta
    return np.array(
        [
            [a_e, a_h, b],
            [a_h, a_h, b],
            [b, b, a_e],
        ]
    )


def simulate_discrete_ensemble(params: ElasticityParams, n_runs: int) -> np.ndarray:
    """Run the per-sample stochastic dynamics for ``n_runs`` replicas of one
    generator seeded by ``params.seed``.  Returns group-mean logits of shape
    (n_runs, iterations + 1, 3); FloatingPointError if any replica diverges."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    return _finite(_simulate(params, [np.random.default_rng(params.seed)], n_runs),
                   params.iterations)


def simulate_seeds(model: ElasticityModel, seeds) -> Iterator[np.ndarray]:
    """One replica per seed, all in one pass of the step loop.  Returns an
    iterator over each seed's (iterations + 1, 3) group means in ``seeds``
    order, equal bit for bit to ``simulate_discrete_ensemble`` of that seed
    and one replica; in place of the first that is non-finite, it raises
    that seed's FloatingPointError, so the caller keeps what came before."""
    generators = [np.random.default_rng(seed) for seed in seeds]
    if not generators:
        raise ValueError("seeds must not be empty")
    means = _simulate(model, generators, 1)
    return (_finite(traj, model.iterations) for traj in means)


def _finite(means: np.ndarray, iterations: int) -> np.ndarray:
    """``means``, or FloatingPointError if its last step is not all finite."""
    if not np.isfinite(means[..., -1, :]).all():  # inf and nan persist once reached
        raise FloatingPointError(f"non-finite group means by iteration {iterations}")
    return means


def _simulate(model: ElasticityModel, generators, per_generator: int) -> np.ndarray:
    """The dynamics of ``per_generator`` replicas for each generator, stepped
    together; replica ``r`` draws from generator ``r // per_generator``.
    Returns the unchecked group means, (replicas, iterations + 1, 3).

    Each step draws one training sample per replica uniformly with
    replacement and updates every logit by ``h * E[group(s), group(J)] *
    X_J`` plus ``sqrt(h) * N(0, noise^2)`` per sample.  Each update acts on
    its replica alone, and the group sums below are taken per element, so a
    replica's means do not depend on the others stepped with it.

    Each step's logits go to the next row of a (chunk, replicas, n) buffer
    of at most SIM_CHUNK_FLOATS floats (one step if a step is larger); the
    group means of a full buffer, and of the last partial one, are taken
    at once: ``record`` writes ``hist[:k, :, group].mean(axis=2)``, bit for
    bit, as ``numutil.sum_first`` over the group's samples divided by its
    size, which costs one ufunc call per add rather than numpy's per-row
    overhead on millions of 10-sample rows.

    The draws of all the steps that fill the buffer come first, per
    generator and for its own replicas only, so that each generator draws
    what a run of it alone would.  Without noise, one (steps, per_generator)
    draw gives their indices; it returns what ``steps`` draws of
    per_generator would, because the bit generator keeps the unused 32-bit
    half of a word between calls, so it gives the per-step loop's bits
    whatever the buffer's length.  With noise, each step draws the
    replicas' indices and then their (per_generator, n) normals, the
    per-step loop's order.  A step reads only rows before its own, so
    drawing ahead changes no value.  Then the steps' pull factors are
    gathered at once, and each step adds its pull, then its scaled normals.
    Memory stays near the returned means plus two buffer-sized arrays, the
    logits and their pull factors, and with noise a third, the normals.
    """
    n_runs = len(generators) * per_generator
    h = model.step_size
    sizes = model.group_sizes()
    n = model.n_total
    group_of = np.repeat(np.arange(3), sizes)
    G = elasticity_matrix(model)
    # row g: the pull on each sample, times h, when the draw is in group g
    h_col_fac = np.ascontiguousarray((h * G[group_of]).T)
    # the replicas (the columns of a draw) that each generator draws for
    cols = [slice(i * per_generator, (i + 1) * per_generator) for i in range(len(generators))]

    starts = np.concatenate([[0], np.cumsum(sizes)])
    means = np.empty((model.iterations + 1, n_runs, 3))
    hist = np.empty((min(max(1, SIM_CHUNK_FLOATS // (n_runs * n)), model.iterations + 1),
                     n_runs, n))
    hist[0] = np.repeat(np.asarray(model.x0, dtype=np.float64), sizes)

    def record(first, k):
        for g in range(3):
            group = hist[:k, :, starts[g] : starts[g + 1]].transpose(2, 0, 1)
            np.divide(sum_first(group), sizes[g], out=means[first : first + k, :, g])

    run_idx = np.arange(n_runs)
    J = np.empty(hist.shape[:2], dtype=np.int64)  # the indices of a buffer's steps
    fac = np.empty_like(hist)  # their pull factors
    Z = np.empty_like(hist) if model.noise > 0 else [None] * len(hist)  # their normals, if any
    noise_scale = np.sqrt(h) * model.noise
    flat = hist.reshape(-1)
    X, k, m = hist[0], 1, 1  # the first k buffer rows hold steps m - k .. m - 1
    while m <= model.iterations:
        if k == len(hist):
            record(m - k, k)
            k = 0
        steps = min(len(hist) - k, model.iterations + 1 - m)  # to fill the buffer
        for rng, c in zip(generators, cols):
            if model.noise == 0:
                J[:steps, c] = rng.integers(0, n, size=(steps, per_generator))
            else:
                for j, z in zip(J[:steps, c], Z[:steps, c]):
                    j[:] = rng.integers(0, n, size=per_generator)
                    rng.standard_normal(out=z)
        # mode="clip" writes straight to out ("raise" would buffer it); no index is out of range
        np.take(h_col_fac, group_of[J[:steps]], axis=0, out=fac[:steps], mode="clip")
        # flat positions of the drawn logits in the buffer row before each step's own;
        # row -1 counts from the end, the last row, which a buffer's first step reads
        read_rows = np.arange(k - 1, k - 1 + steps)
        src = (read_rows[:, None] * (n_runs * n) + run_idx * n + J[:steps])[:, :, None]
        for s, f, out, z in zip(src, fac, hist[k : k + steps], Z):
            X = np.add(X, np.multiply(f, flat[s], out=f), out=out)
            if z is not None:
                z *= noise_scale
                X += z
        k += steps
        m += steps
    record(model.iterations + 1 - k, k)
    return means.transpose(1, 0, 2)


def ode_matrix(params: ElasticityModel) -> np.ndarray:
    """Coefficients of the averaged dynamics d xbar/dt = A @ xbar."""
    weights = params.group_sizes() / params.n_total
    return elasticity_matrix(params) * weights[None, :]


def ode_steps(dt: float, t_end: float) -> int:
    """The number of ``dt`` steps to ``t_end``; ValueError unless both are
    positive and finite and ``t_end`` is a whole number (>= 1) of them, within rounding."""
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    if not 0 < t_end < np.inf:
        raise ValueError("t_end must be positive and finite")
    steps = int(round(t_end / dt))
    if steps < 1 or abs(steps * dt - t_end) > 1e-9 * t_end:
        raise ValueError(f"t_end must be a whole number of dt steps, got t_end={t_end}, dt={dt}")
    return steps


def integrate_ode(params: ElasticityModel, dt: float, t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward-Euler integration of the averaged group dynamics over
    ``ode_steps(dt, t_end)`` steps: (times, trajectory) with trajectory[k]
    the group means at times[k]; deterministic.  Each step is
    ``x + dt * (A @ x)``: ``np.dot``, which has ``A @ x``'s bits and costs
    less per call on a 3-vector, and two ufuncs, writing into a scratch
    vector and the step's row of the trajectory.  FloatingPointError if
    they diverge."""
    steps = ode_steps(dt, t_end)
    A = ode_matrix(params)
    traj = np.empty((steps + 1, 3))
    traj[0] = np.asarray(params.x0, dtype=np.float64)
    dx = np.empty(3)
    for x, nxt in zip(traj, traj[1:]):
        np.dot(A, x, out=dx)
        dx *= dt
        np.add(x, dx, out=nxt)
    if not np.isfinite(traj[-1]).all():  # inf and nan persist once reached
        raise FloatingPointError(f"non-finite ODE group means by t_end={t_end}")
    return np.arange(steps + 1) * dt, traj


def convergence_gap(trajectory) -> np.ndarray:
    """Per-step easy-minus-hard group-mean difference of a (T, 3) trajectory."""
    traj = np.asarray(trajectory, dtype=np.float64)
    if traj.ndim != 2 or traj.shape[1] != 3:
        raise ValueError("trajectory must be (T, 3) group means")
    return traj[:, GROUP_EASY1] - traj[:, GROUP_HARD1]


def check_closed_form_domain(sy_values, classes) -> None:
    """The closed forms' domain: every s_y in (0, 1), every class count >= 2."""
    for s_y in sy_values:
        if not 0 < s_y < 1:
            raise ValueError(f"s_y must lie in (0, 1), got {s_y}")
    for n_classes in classes:
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")


def s_vector(s_y: float, n_classes: int) -> np.ndarray:
    """[s_y, (1-s_y)/(C-1), ...]: true-class mass plus a uniform rest."""
    check_closed_form_domain([s_y], [n_classes])
    v = np.full(n_classes, (1.0 - s_y) / (n_classes - 1))
    v[0] = s_y
    return v


def theorem2_entropy(s_y: float, n_classes: int) -> float:
    """Closed-form entropy of s_vector: H2(s_y) + (1-s_y) ln(C-1)."""
    check_closed_form_domain([s_y], [n_classes])
    h2 = -s_y * np.log(s_y) - (1.0 - s_y) * np.log(1.0 - s_y)
    return float(h2 + (1.0 - s_y) * np.log(n_classes - 1))


def theorem2_margin(s_y: float, n_classes: int) -> float:
    """Closed-form margin of s_vector: C/(C-1) * s_y - 1/(C-1)."""
    check_closed_form_domain([s_y], [n_classes])
    C = n_classes
    return float(C / (C - 1) * s_y - 1.0 / (C - 1))


def save_trajectory_csv(path, trajectory: np.ndarray) -> None:
    """Write ``step,xbar_1e,xbar_1h,xbar_2,gap`` rows for one trajectory."""
    traj = np.asarray(trajectory, dtype=np.float64)
    cols = np.column_stack([traj, convergence_gap(traj)]).T.tolist()
    write_csv(path, ["step", "xbar_1e", "xbar_1h", "xbar_2", "gap"],
              list(zip(range(len(traj)), *cols)))
