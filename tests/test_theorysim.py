import math
import tracemalloc

import numpy as np
import pytest

from dynal import estimators, theorysim
from dynal.theorysim import (
    ElasticityParams,
    convergence_gap,
    elasticity_matrix,
    integrate_ode,
    ode_matrix,
    s_vector,
    simulate_discrete_ensemble,
    theorem2_entropy,
    theorem2_margin,
)


def params(**kw):
    base = dict(n_1e=4, n_1h=4, n_2=4, alpha_e=1.0, alpha_h=0.5, beta=0.1,
                step_size=1e-3, noise=0.0, x0=(1.0, 1.0, 1.0), iterations=100, seed=0)
    base.update(kw)
    return ElasticityParams(**base)


def per_step_ensemble(params, n_runs):
    """simulate_discrete_ensemble as it was before its logits were buffered:
    the group means taken and stored every step."""
    h = params.step_size
    sqrt_h = np.sqrt(h)
    sizes = params.group_sizes()
    n = params.n_total
    group_of = np.repeat(np.arange(3), sizes)
    row_fac = elasticity_matrix(params)[group_of]
    rng = np.random.default_rng(params.seed)
    X = np.tile(np.repeat(np.asarray(params.x0, dtype=np.float64), sizes), (n_runs, 1))
    starts = np.concatenate([[0], np.cumsum(sizes)])
    means = np.empty((params.iterations + 1, n_runs, 3))

    def record(step):
        for g in range(3):
            means[step, :, g] = X[:, starts[g] : starts[g + 1]].mean(axis=1)

    record(0)
    run_idx = np.arange(n_runs)
    for m in range(1, params.iterations + 1):
        J = rng.integers(0, n, size=n_runs)
        x_j = X[run_idx, J][:, None]
        fac = row_fac[:, group_of[J]].T
        X += h * fac * x_j
        if params.noise > 0:
            X += sqrt_h * params.noise * rng.standard_normal(size=X.shape)
        record(m)
    return means.transpose(1, 0, 2)


def chunk_steps(n_runs, n):
    """Steps per full buffer of simulate_discrete_ensemble."""
    return max(1, theorysim.SIM_CHUNK_FLOATS // (n_runs * n))


class TestParams:
    def test_ordering_constraint_enforced(self):
        with pytest.raises(ValueError, match="alpha_e > alpha_h > beta"):
            params(alpha_e=0.5, alpha_h=1.0)
        with pytest.raises(ValueError):
            params(beta=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            params(seed=-1)

    def test_matrix_layout(self):
        G = elasticity_matrix(params())
        np.testing.assert_array_equal(G, [[1.0, 0.5, 0.1], [0.5, 0.5, 0.1], [0.1, 0.1, 1.0]])


class TestDiscreteSimulation:
    def test_symmetric_elasticity_keeps_groups_identical(self):
        # alpha_e = alpha_h = beta is outside the admissible ordering, so
        # push them together within it: nearly equal values stay nearly equal.
        p = params(alpha_e=1.0 + 1e-9, alpha_h=1.0, beta=1.0 - 1e-9, iterations=200)
        traj = simulate_discrete_ensemble(p, 1)[0]
        gaps = np.abs(traj - traj[:, [0]])
        assert gaps.max() < 1e-5

    def test_one_step_expected_gain_gap(self):
        # enumerate every possible draw J for the first step
        p = params(n_1e=3, n_1h=3, n_2=3, step_size=0.01)
        G = elasticity_matrix(p)
        h = p.step_size
        n = p.n_total
        group_of = np.repeat(np.arange(3), 3)
        gain_e = np.mean([h * G[0, group_of[j]] * 1.0 for j in range(n)])
        gain_h = np.mean([h * G[1, group_of[j]] * 1.0 for j in range(n)])
        expected_gap = (1.0 / 3.0) * (p.alpha_e - p.alpha_h) * h
        assert gain_e - gain_h == pytest.approx(expected_gap, abs=1e-15)

        # the simulated one-step ensemble mean approaches that expectation
        p1 = params(n_1e=3, n_1h=3, n_2=3, step_size=0.01, iterations=1, seed=5)
        ens = simulate_discrete_ensemble(p1, 4000)
        one_step = ens[:, 1, :] - ens[:, 0, :]
        got_gap = one_step[:, 0].mean() - one_step[:, 1].mean()
        assert got_gap == pytest.approx(expected_gap, rel=0.15)

    def test_seeded_determinism(self):
        a = simulate_discrete_ensemble(params(noise=0.3, iterations=50), 1)[0]
        b = simulate_discrete_ensemble(params(noise=0.3, iterations=50), 1)[0]
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n, steps, n_runs", [(3, 5, 1), (30, 11, 7), (2**31 + 1, 4, 201)])
    def test_one_draw_of_a_buffers_indices_equals_its_per_step_draws(self, seed, n, steps,
                                                                     n_runs):
        """The noise-free path draws the indices of a buffer's steps in one
        call; that equals per-step draws only while the bit generator keeps
        the unused half of a 64-bit word between calls: an odd n_runs leaves
        one, and at n = 2**31 + 1 about half the 32-bit draws are rejected."""
        block = np.random.default_rng(seed).integers(0, n, size=(steps, n_runs))
        rng = np.random.default_rng(seed)
        per_step = np.stack([rng.integers(0, n, size=n_runs) for _ in range(steps)])
        assert np.array_equal(block, per_step)

    def test_diverging_ensemble_raises(self):
        # step_size 10: each draw adds up to 10 times the drawn logit to every logit
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite group means by iteration"):
                simulate_discrete_ensemble(params(step_size=10.0, iterations=2000), 3)

    def test_diverging_ensemble_raises_when_the_last_chunk_is_partial(self, monkeypatch):
        p = params(step_size=10.0, iterations=2000)
        monkeypatch.setattr(theorysim, "SIM_CHUNK_FLOATS", 7 * 3 * p.n_total)
        assert (p.iterations + 1) % chunk_steps(3, p.n_total) != 0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError,
                               match="non-finite group means by iteration 2000$"):
                simulate_discrete_ensemble(p, 3)


class TestChunkedRecording:
    """The group means, taken once per buffer of logits, against the
    per-step loop they replaced."""

    @pytest.mark.parametrize("chunk", [1, 7, 64, theorysim.SIM_CHUNK_FLOATS])
    @pytest.mark.parametrize("n_runs", [1, 3, 40])
    # group sizes of 1 and above numpy's pairwise-sum block of 128
    @pytest.mark.parametrize("sizes", [(1, 2, 3), (129, 1, 6)])
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("length", ["one step", "whole chunks", "partial chunk"])
    def test_equals_the_per_step_loop(self, monkeypatch, chunk, n_runs, sizes, noise, length):
        monkeypatch.setattr(theorysim, "SIM_CHUNK_FLOATS", chunk)
        steps = chunk_steps(n_runs, sum(sizes))
        # iterations + 1 steps are recorded, the initial one included
        iterations = {"one step": 1, "whole chunks": 2 * steps - 1,
                      "partial chunk": 2 * steps + 1}[length]
        p = params(n_1e=sizes[0], n_1h=sizes[1], n_2=sizes[2], noise=noise,
                   iterations=iterations, seed=7)
        assert np.array_equal(simulate_discrete_ensemble(p, n_runs), per_step_ensemble(p, n_runs))

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_memory_stays_near_the_means_and_one_buffer(self, noise):
        n_runs = 200
        p = params(n_1e=10, n_1h=10, n_2=10, noise=noise, iterations=5000)
        means_bytes = (p.iterations + 1) * n_runs * 3 * 8
        chunk_cells = chunk_steps(n_runs, p.n_total) * n_runs
        # Besides the means and the buffer: per chunk, one group's means and
        # sum (chunk x n_runs floats each); 64 KiB for small arrays.  With
        # noise, per step, the gathered pull factors, their product with the
        # drawn logits and the noise draws (n_runs x n floats each).  Without
        # noise, per buffer, the pull factors (at most one buffer's floats) and
        # at most four index arrays of the draws (chunk x n_runs ints each).
        if noise > 0:
            per_path = 3 * n_runs * p.n_total
        else:
            per_path = theorysim.SIM_CHUNK_FLOATS + 4 * chunk_cells
        slack = 8 * (per_path + 2 * chunk_cells) + 2**16
        simulate_discrete_ensemble(params(noise=0.3, iterations=2), 2)  # the generator's imports
        tracemalloc.start()
        try:
            simulate_discrete_ensemble(p, n_runs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= means_bytes + 8 * theorysim.SIM_CHUNK_FLOATS + slack


class TestODE:
    def test_matrix_weights(self):
        p = params(n_1e=1, n_1h=2, n_2=3)
        A = ode_matrix(p)
        w = np.array([1, 2, 3]) / 6.0
        np.testing.assert_allclose(A, elasticity_matrix(p) * w[None, :], atol=1e-15)

    def test_identical_groups_under_equal_elasticities(self):
        # degenerate limit within the admissible ordering
        p = params(alpha_e=1.0 + 1e-12, alpha_h=1.0, beta=1.0 - 1e-12, n_2=0 + 4)
        _, traj = integrate_ode(p, 1e-3, 2.0)
        assert np.abs(traj[:, 0] - traj[:, 1]).max() < 1e-9

    def test_gap_derivative_identity(self):
        # Euler step of the gap equals (n_1e/n)(alpha_e - alpha_h) * xbar_1e exactly
        p = params(n_1e=5, n_1h=3, n_2=2)
        dt = 1e-3
        _, traj = integrate_ode(p, dt, 1.0)
        gap = convergence_gap(traj)
        coeff = (5 / 10) * (p.alpha_e - p.alpha_h)
        lhs = np.diff(gap) / dt
        rhs = coeff * traj[:-1, 0]
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_initial_gap_slope_one_sixth(self):
        p = params(n_1e=7, n_1h=7, n_2=7, x0=(1.0, 1.0, 1.0))
        dt = 1e-4
        _, traj = integrate_ode(p, dt, 0.01)
        gap = convergence_gap(traj)
        slope0 = (gap[1] - gap[0]) / dt
        # cancellation in gap[1] - gap[0] costs ~1e-12 of absolute accuracy
        assert slope0 == pytest.approx(1.0 / 6.0, abs=1e-9)

    @pytest.mark.parametrize("dt, t_end", [(1.0, 0.4), (0.3, 1.0), (0.4, 1.0), (2.0, 5.0)])
    def test_t_end_off_the_step_grid_rejected(self, dt, t_end):
        # Rounding would integrate to t = 0 or t = 0.9 and report it as t_end.
        with pytest.raises(ValueError, match="t_end must be a whole number of dt steps"):
            integrate_ode(params(), dt, t_end)
        with pytest.raises(ValueError, match="t_end must be a whole number of dt steps"):
            theorysim.ode_steps(dt, t_end)

    @pytest.mark.parametrize("dt, t_end, steps", [(0.1, 0.3, 3), (0.5, 0.5, 1)])
    def test_t_end_on_the_step_grid_within_rounding(self, dt, t_end, steps):
        times, traj = integrate_ode(params(), dt, t_end)
        assert theorysim.ode_steps(dt, t_end) == steps
        assert traj.shape == (steps + 1, 3)
        assert times[-1] == pytest.approx(t_end, rel=1e-12)

    def test_diverging_euler_steps_raise(self):
        # the group means grow geometrically, past the float range by t = 2000
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite ODE group means"):
                integrate_ode(params(), 1.0, 2000.0)

    def test_gap_positive_and_increasing(self):
        p = params()
        _, traj = integrate_ode(p, 1e-3, 5.0)
        gap = convergence_gap(traj)
        assert np.all(gap[1:] > 0)
        assert np.all(np.diff(gap) > 0)


class TestDiscreteOdeConsistency:
    def test_h_refinement_halves_error(self):
        # mean of many noise-free draws approaches the ODE gap as h shrinks
        t_end = 1.0
        _, ode = integrate_ode(params(), 1e-5, t_end)
        ode_gap = convergence_gap(ode)[-1]
        errs = []
        for h in (4e-3, 2e-3):
            steps = int(round(t_end / h))
            p = params(step_size=h, iterations=steps, seed=3)
            ens = simulate_discrete_ensemble(p, 3000)
            mean_gap = convergence_gap(ens.mean(axis=0))[-1]
            errs.append(abs(mean_gap - ode_gap))
        # O(h): halving h should at least noticeably shrink the error
        assert errs[1] < 0.75 * errs[0]

    def test_convergence_gap_shapes(self):
        with pytest.raises(ValueError):
            convergence_gap(np.zeros((4, 2)))
        out = convergence_gap(np.array([[1.0, 1.0, 5.0], [3.0, 1.0, 5.0]]))
        np.testing.assert_array_equal(out, [0.0, 2.0])


class TestClosedForms:
    def test_binary_uniform(self):
        assert theorem2_entropy(0.5, 2) == pytest.approx(math.log(2), abs=1e-12)
        assert theorem2_margin(0.5, 2) == pytest.approx(0.0, abs=1e-12)

    def test_derived_values_c10(self):
        # oracle: direct formula evaluation
        s = 0.9
        h2 = -s * math.log(s) - (1 - s) * math.log(1 - s)
        assert theorem2_entropy(s, 10) == pytest.approx(h2 + 0.1 * math.log(9), abs=1e-12)
        assert theorem2_entropy(s, 10) == pytest.approx(0.54480, abs=1e-5)
        assert theorem2_margin(s, 10) == pytest.approx(10 / 9 * 0.9 - 1 / 9, abs=1e-12)
        assert theorem2_margin(s, 10) == pytest.approx(0.88889, abs=1e-5)

    @pytest.mark.parametrize("C", [2, 3, 10, 100])
    def test_closed_forms_match_constructed_vectors(self, C):
        for s in np.linspace(0.05, 0.95, 19):
            v = s_vector(float(s), C)
            assert estimators.entropy(v) == pytest.approx(theorem2_entropy(float(s), C), abs=1e-12)
            assert estimators.margin(v, 0) == pytest.approx(
                theorem2_margin(float(s), C), abs=1e-12
            )

    def test_domain_checks(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                theorem2_entropy(bad, 3)
            with pytest.raises(ValueError):
                theorem2_margin(bad, 3)
            with pytest.raises(ValueError, match=f"s_y must lie in \\(0, 1\\), got {bad}"):
                theorysim.check_closed_form_domain([0.5, bad], [2])
        with pytest.raises(ValueError, match="n_classes must be >= 2, got 1"):
            theorysim.check_closed_form_domain([0.5], [3, 1])
        theorysim.check_closed_form_domain([], [])

    @pytest.mark.parametrize("C", [2, 3, 10, 100])
    def test_monotonicity_above_half(self, C):
        grid = np.arange(0.55, 0.96, 0.05)
        ents = [theorem2_entropy(float(s), C) for s in grid]
        margs = [theorem2_margin(float(s), C) for s in grid]
        assert all(a > b for a, b in zip(ents, ents[1:]))
        assert all(a < b for a, b in zip(margs, margs[1:]))


class TestTrajectoryCsv:
    def test_format(self, tmp_path):
        _, traj = integrate_ode(params(), 1e-2, 0.05)
        path = tmp_path / "traj.csv"
        theorysim.save_trajectory_csv(path, traj)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,xbar_1e,xbar_1h,xbar_2,gap"
        assert len(lines) == traj.shape[0] + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 1.0
