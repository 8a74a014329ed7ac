import tracemalloc

import numpy as np
import pytest

from rdspill.asymptotics import build_lambda_table
from rdspill.errors import ConfigError, DomainError
from rdspill.funcspace import ModelSpec, constant, eval_func, polynomial, sinusoid_sum
from rdspill.population import (
    mu_at,
    nu_exact,
    solve_population,
    true_estimands,
)
from rdspill.quadrature import SOLVER_TOL, window_integrals


def _brute_mu(sol, z, n=40_000):
    """Independent F-average of the solution: midpoint rule on sol.interp,
    split at the cutoff so the jump never sits inside a sampling cell."""
    lo, hi = max(z - sol.r, -1.0), min(z + sol.r, 1.0)
    total = 0.0
    for a, b in ((lo, min(hi, 0.0)), (max(lo, 0.0), hi)):
        if b <= a:
            continue
        mids = np.linspace(a, b, n + 1)[:-1] + (b - a) / (2 * n)
        total += (b - a) * float(np.mean(sol.interp(mids)))
    return total / (hi - lo)


def interp_reference(sol, z):
    """PopulationSolution.interp as it was written against np.interp: numpy's
    interpolant, then the two one-sided cells at the cutoff."""
    out = np.interp(z, sol.grid, sol.y)
    i0, dz = sol.i0, sol.grid[1] - sol.grid[0]
    if sol.jump_left != 0.0:
        mask = (z >= sol.grid[i0 - 1]) & (z < 0.0)
        t = (z[mask] - sol.grid[i0 - 1]) / dz
        out[mask] = (1 - t) * sol.y[i0 - 1] + t * (sol.y[i0] + sol.jump_left)
    if sol.jump_right != 0.0:
        mask = (z > 0.0) & (z <= sol.grid[i0 + 1])
        t = (z[mask] - sol.grid[i0]) / dz
        out[mask] = (1 - t) * (sol.y[i0] + sol.jump_right) + t * sol.y[i0 + 1]
    return out


class TestNuExact:
    def test_cutoff_values(self):
        assert nu_exact(0.1, 0.0) == pytest.approx(0.5)
        assert nu_exact(0.1, 0.05) == pytest.approx(0.75)
        assert nu_exact(0.1, 0.1) == pytest.approx(1.0)
        assert nu_exact(0.1, -0.2) == 0.0
        assert nu_exact(0.1, 0.7) == 1.0

    def test_boundary_windows(self):
        # near z = -1 the neighborhood is clipped but stays untreated
        assert nu_exact(0.3, -0.95) == 0.0
        # near z = 1 fully treated
        assert nu_exact(0.3, 0.95) == 1.0
        # clipped window straddling the cutoff
        assert nu_exact(1.5, -0.9) == pytest.approx(0.6 / 1.6)

    def test_rejects_nan_radius(self):
        with pytest.raises(ConfigError, match="positive"):
            nu_exact(float("nan"), 0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            nu_exact(0.0, 0.0)
        with pytest.raises(ConfigError):
            nu_exact(2.0, 0.0)
        with pytest.raises(DomainError):
            nu_exact(0.1, 1.5)

    @pytest.mark.parametrize("z", [np.nan, np.array([0.1, np.nan])])
    def test_rejects_nan(self, z):
        # a min/max range check lets NaN through; nu_exact returned nan
        with pytest.raises(DomainError):
            nu_exact(0.075, z)

    def test_matches_indicator_quadrature(self):
        # the closed form must agree with integrating the treated indicator
        # (stored as right limits plus the unit jump) over each window
        grid = np.linspace(-1, 1, 2001)
        i0 = len(grid) // 2
        ind = (grid >= 0).astype(float)
        rng = np.random.default_rng(5)
        z = rng.uniform(-1, 1, size=40)
        r = 0.17
        lo, hi = np.maximum(z - r, -1.0), np.minimum(z + r, 1.0)
        quad = window_integrals(ind, grid, lo, hi, i0, -1.0, 0.0) / (hi - lo)
        np.testing.assert_allclose(quad, nu_exact(r, z), atol=1e-12)


@pytest.fixture(scope="module")
def bench_sol(benchmark_model):
    return solve_population(benchmark_model, 0.1)


class TestSolvePopulation:

    def test_report_and_residual(self, bench_sol):
        rep = bench_sol.solver_report
        assert rep["method"] == "two-grid"
        assert rep["iterations"] >= 1
        assert rep["residual_sup_norm"] <= SOLVER_TOL
        assert rep["coarse_n"] == 81  # spacing r/4 = 0.025 over [-1, 1]

    def test_jump_fields(self, bench_sol):
        assert bench_sol.jump_left == pytest.approx(-1.0)
        assert bench_sol.jump_right == 0.0

    def test_fixed_point_verified_independently(self, bench_sol, benchmark_model):
        # Y(z) = m(z) + delta(z) mu(z) + gamma(z) nu(z) re-checked with a
        # midpoint-rule mu that never touches the solver's quadrature
        m = benchmark_model
        for z in (-0.63, -0.2, 0.0, 0.31, 0.97):
            mu_ref = _brute_mu(bench_sol, z)
            m_val = eval_func(m.m_plus if z >= 0 else m.m_minus, z)
            rhs = m_val + 0.4 * mu_ref + 0.5 * nu_exact(0.1, z)
            assert bench_sol.interp(np.array([z]))[0] == pytest.approx(rhs, abs=2e-6)

    def test_matches_dense_oracle(self, benchmark_model, dense_population):
        sol = solve_population(benchmark_model, 0.1, grid_n=1001)
        gap = np.max(np.abs(sol.y - dense_population(benchmark_model, 0.1, 1001)))
        # a residual below tol leaves an error below tol / (1 - delta_bar); the
        # factor 2 covers the oracle's own rounding
        assert gap <= 2 * SOLVER_TOL / (1 - 0.4)
        assert sol.solver_report["iterations"] >= 1

    def test_rejects_nan_radius(self, benchmark_model):
        with pytest.raises(ConfigError, match="outside"):
            solve_population(benchmark_model, float("nan"), grid_n=1001)

    def test_smallest_radius_matches_dense_oracle(self, dense_population):
        # just above 4 grid spacings: the coarse grid sits at its node cap
        model = ModelSpec(
            m_plus=polynomial([1.0, 0.3]), m_minus=polynomial([0.0, 0.2]),
            delta=constant(0.95), gamma=constant(0.5), noise_sd=constant(0.0),
        )
        sol = solve_population(model, 0.00801, grid_n=1001)
        assert sol.solver_report["coarse_n"] == 501
        gap = np.max(np.abs(sol.y - dense_population(model, 0.00801, 1001)))
        assert gap <= 2 * SOLVER_TOL / (1 - 0.95)

    @pytest.mark.parametrize("delta", [0.9999, 0.99999])
    @pytest.mark.parametrize("r", [0.075, 0.01])
    def test_near_unit_delta_matches_dense_oracle(self, dense_population, delta, r):
        # sup|y| ~ 1/(1 - delta): an absolute 1e-10 stop sits below rounding
        model = ModelSpec(
            m_plus=polynomial([1.0, 0.3]), m_minus=polynomial([0.0, 0.2]),
            delta=constant(delta), gamma=constant(0.5), noise_sd=constant(0.0),
        )
        assert solve_population(model, r, grid_n=4001).solver_report["iterations"] >= 1
        sol = solve_population(model, r, grid_n=2001)
        ref = dense_population(model, r, 2001)
        assert np.max(np.abs(sol.y - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_grid_refinement_converges(self, benchmark_model):
        coarse = solve_population(benchmark_model, 0.3, grid_n=1001)
        fine = solve_population(benchmark_model, 0.3, grid_n=4001)
        # coarse grid points are a subset of the fine ones (both include 0)
        assert np.max(np.abs(coarse.y - fine.y[::4])) < 1e-4

    def test_solution_interp_one_sided(self, bench_sol):
        eps = 1e-9
        left = bench_sol.interp(np.array([-eps]))[0]
        right = bench_sol.interp(np.array([eps]))[0]
        at0 = bench_sol.y[bench_sol.i0]
        assert right == pytest.approx(at0, abs=1e-6)
        assert left == pytest.approx(at0 - 1.0, abs=1e-6)

    @pytest.mark.parametrize("grid_n", [1001, 2001, 4001])
    @pytest.mark.parametrize("jumps", ["left", "right", "none"])
    def test_interp_matches_np_interp_bitwise(self, benchmark_model, jumps, grid_n):
        # the benchmark model jumps left of the cutoff; a continuous m with a
        # one-sided gamma jumps right of it; a continuous m alone does not jump
        model = benchmark_model
        if jumps != "left":
            m = polynomial([0.1, 0.2, -0.5])
            model = ModelSpec(m_plus=m, m_minus=m, delta=constant(0.4), gamma=constant(0.5),
                              noise_sd=constant(0.1), gamma_one_sided=jumps == "right")
        sol = solve_population(model, 0.05, grid_n)
        assert (sol.jump_left != 0.0, sol.jump_right != 0.0) == (jumps == "left", jumps == "right")
        g, i0 = sol.grid, sol.i0
        ends = np.array([-1.0, 1.0])
        z = np.concatenate([
            np.random.default_rng(grid_n).uniform(-1.0, 1.0, 50_000),
            g, np.nextafter(g, -np.inf), np.nextafter(g, np.inf),
            np.linspace(g[i0 - 1], g[i0 + 1], 1001), np.nextafter(0.0, ends),
            ends, np.nextafter(ends, 0.0),
        ])
        ref = interp_reference(sol, z)
        assert np.array_equal(sol.interp(z).view(np.int64), ref.view(np.int64))

    def test_validation(self, benchmark_model):
        with pytest.raises(ConfigError):
            solve_population(benchmark_model, 0.1, grid_n=1000)
        with pytest.raises(ConfigError):
            solve_population(benchmark_model, 0.1, grid_n=101)
        with pytest.raises(ConfigError):
            solve_population(benchmark_model, 2.5)
        with pytest.raises(ConfigError):
            solve_population(benchmark_model, 0.001, grid_n=401)

    def test_arrays_read_only(self, bench_sol):
        with pytest.raises(ValueError):
            bench_sol.y[0] = 99.0

    def test_one_sided_gamma_fixed_point(self):
        model = ModelSpec(
            m_plus=polynomial([1.0, 0.3]), m_minus=polynomial([0.0, 0.2]),
            delta=constant(0.4), gamma=constant(0.5),
            noise_sd=constant(0.0), gamma_one_sided=True,
        )
        sol = solve_population(model, 0.1)
        assert sol.jump_right == pytest.approx(-0.25)  # -gamma(0) * nu(0)
        for z in (-0.4, 0.2):
            mu_ref = _brute_mu(sol, z)
            m_val = eval_func(model.m_plus if z >= 0 else model.m_minus, z)
            rhs = m_val + 0.4 * mu_ref + model.gamma_at(z) * nu_exact(0.1, z)
            assert sol.interp(np.array([z]))[0] == pytest.approx(rhs, abs=2e-6)


def test_solver_memory_stays_linear(benchmark_model):
    # one fine N x N array would take 128 MB here (N = 4001) or 328 MB (6401)
    tracemalloc.start()
    try:
        solve_population(benchmark_model, 0.075, 4001)
        build_lambda_table(0.4, 24.0, 6401)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


class TestStructureLemmas:
    def test_odd_solution_preserved(self):
        # odd baseline, constant delta, no exogenous channel, the same
        # baseline on both sides: window clipping is mirror symmetric, so the
        # fixed point inherits oddness
        model = ModelSpec(
            m_plus=sinusoid_sum([0.7, 3.0]), m_minus=sinusoid_sum([0.7, 3.0]),
            delta=constant(0.3), gamma=constant(0.0), noise_sd=constant(0.0),
        )
        sol = solve_population(model, 0.25, grid_n=2001)
        assert np.max(np.abs(sol.y + sol.y[::-1])) < 1e-9

    def test_contraction_on_differences(self, benchmark_model):
        # the fixed-point map moves any two outcome candidates closer by at
        # least the factor sup|delta|; jumps cancel in differences
        grid = np.linspace(-1, 1, 1001)
        r = 0.1
        lo, hi = np.maximum(grid - r, -1.0), np.minimum(grid + r, 1.0)
        lengths = hi - lo
        dvals = np.asarray(eval_func(benchmark_model.delta, grid))
        rng = np.random.default_rng(11)
        for _ in range(10):
            diff = rng.normal(size=grid.shape)
            mapped = dvals * window_integrals(diff, grid, lo, hi, None, 0.0, 0.0) / lengths
            assert np.max(np.abs(mapped)) <= \
                benchmark_model.delta_bar * np.max(np.abs(diff)) + 1e-12

    def test_interior_slope_bounds(self, benchmark_model, lipschitz_constant):
        # away from the cutoff and the boundary: nu has slope at most 1/(2r),
        # mu at most osc(y)/(2r), and y at most C + delta*slope(mu) by the
        # product rule (all coefficients constant here)
        r = 0.1
        sol = solve_population(benchmark_model, r, grid_n=4001)
        z, dz = sol.grid, sol.grid[1] - sol.grid[0]
        interior = (np.abs(z[:-1]) > r + 2 * dz) & (np.abs(z[:-1] + 1) > r + 2 * dz) \
            & (np.abs(z[:-1] - 1) > r + 2 * dz)
        slope = lambda v: np.abs(np.diff(v) / dz)[interior]
        mu, nu = mu_at(sol, sol.grid), nu_exact(r, sol.grid)
        assert np.max(slope(nu)) <= 1 / (2 * r) + 1e-9
        osc = np.max(sol.y) - np.min(sol.y)
        assert np.max(slope(mu)) <= osc / (2 * r) + 1e-9
        bound = max(lipschitz_constant(benchmark_model.m_plus),
                    lipschitz_constant(benchmark_model.m_minus)) \
            + benchmark_model.delta_bar * np.max(slope(mu)) \
            + 0.5 * np.max(slope(nu))
        assert np.max(slope(sol.y)) <= bound * 1.01 + 1e-9


class TestMuAt:
    def test_matches_brute_force(self, benchmark_model):
        sol = solve_population(benchmark_model, 0.15)
        for z in (-0.9, -0.1, 0.0, 0.07, 0.95):
            assert mu_at(sol, z) == pytest.approx(_brute_mu(sol, z), abs=1e-6)

    def test_domain(self, benchmark_model):
        sol = solve_population(benchmark_model, 0.15, grid_n=1001)
        with pytest.raises(DomainError):
            mu_at(sol, 1.2)
        # NaN used to return nan after an invalid-cast RuntimeWarning
        for z in (np.nan, np.array([0.1, np.nan])):
            with pytest.raises(DomainError):
                mu_at(sol, z)

    def test_cutoff_average_approaches_limit_linearly(self, benchmark_model):
        # mu at the cutoff converges to (Y(0+) + Y(0-))/2 = 1.25 with error
        # proportional to r (slope about 0.0502 for this model)
        devs = {}
        for r in (0.1, 0.05):
            sol = solve_population(benchmark_model, r)
            devs[r] = abs(mu_at(sol, 0.0) - 1.25)
        assert devs[0.05] < devs[0.1]
        for r, dev in devs.items():
            assert dev == pytest.approx(0.0502 * r, rel=0.03)


CURVED = dict(m_plus=polynomial([1.0, 0.3, -0.5]), m_minus=polynomial([0.0, 0.2, 0.4]),
              gamma=polynomial([0.5, 0.3]), noise_sd=constant(0.0))


class TestTrueEstimands:
    @pytest.mark.parametrize("model, r", [
        (ModelSpec(delta=constant(0.4), **CURVED), 0.1),
        (ModelSpec(delta=sinusoid_sum([0.3, 0.2, 2.0]), **CURVED), 0.075),
        (ModelSpec(delta=constant(0.4), gamma_one_sided=True, **CURVED), 0.1),
        (ModelSpec(delta=constant(-0.6), gamma_one_sided=True, **CURVED), 0.3),
    ])
    def test_tau_tot_is_the_two_world_contrast(self, model, r, window_matrix_loop):
        # tau_tot by its definition: Y(0) with everyone treated minus Y(0)
        # with no one treated, each world a dense system of its own; a
        # one-sided gamma, active at 0, switches off just right of it
        grid_n = 1001
        grid = np.linspace(-1.0, 1.0, grid_n)
        lo, hi = np.maximum(grid - r, -1.0), np.minimum(grid + r, 1.0)
        W, _, wr0 = window_matrix_loop(grid, lo, hi, grid_n // 2)
        scale = eval_func(model.delta, grid) / (hi - lo)
        system = np.eye(grid_n) - scale[:, None] * W
        jump_right = -eval_func(model.gamma, 0.0) if model.gamma_one_sided else 0.0
        treated = np.linalg.solve(system, eval_func(model.m_plus, grid) + model.gamma_at(grid)
                                  + scale * wr0 * jump_right)
        untreated = np.linalg.solve(system, eval_func(model.m_minus, grid))
        want = treated[grid_n // 2] - untreated[grid_n // 2]
        assert true_estimands(model, r, grid_n)["tau_tot"] == pytest.approx(want, abs=1e-9)

    def test_benchmark_exact_values(self, benchmark_model):
        est = true_estimands(benchmark_model, 0.1)
        assert est["tau_d"] == pytest.approx(1.0, abs=1e-14)
        # linear baselines make the finite-r total effect exactly 2.5
        assert est["tau_tot"] == pytest.approx(2.5, abs=1e-8)

    def test_small_radius(self, benchmark_model):
        est = true_estimands(benchmark_model, 0.005)
        assert est["tau_tot"] == pytest.approx(2.5, abs=1e-6)

    def test_nonlinear_model_near_limit(self):
        # curved baselines: tau_tot is r-dependent but approaches
        # (tau_d + gamma0)/(1 - delta0) as r -> 0
        model = ModelSpec(
            m_plus=polynomial([1.0, 0.3, 0.4]), m_minus=polynomial([0.0, 0.2, -0.3]),
            delta=constant(0.4), gamma=constant(0.5), noise_sd=constant(0.0),
        )
        est = true_estimands(model, 0.01)
        assert est["tau_tot"] == pytest.approx(2.5, abs=5e-3)
