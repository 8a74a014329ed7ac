import numpy as np
import pytest

from rdspill.funcspace import ModelSpec, constant, eval_func, polynomial
from rdspill.population import _jumps, _model_rhs
from rdspill.quadrature import window_matrix


@pytest.fixture(scope="session")
def benchmark_model():
    """Linear baselines with constant spillover coefficients.

    tau_d = 1 and, because every structural piece is linear or constant, the
    total effect equals (tau_d + gamma0)/(1 - delta0) = 2.5 at any radius.
    """
    return ModelSpec(
        m_plus=polynomial([1.0, 0.3]),
        m_minus=polynomial([0.0, 0.2]),
        delta=constant(0.4),
        gamma=constant(0.5),
        noise_sd=constant(0.1),
    )


@pytest.fixture(scope="session")
def noiseless_benchmark():
    return ModelSpec(
        m_plus=polynomial([1.0, 0.3]),
        m_minus=polynomial([0.0, 0.2]),
        delta=constant(0.4),
        gamma=constant(0.5),
        noise_sd=constant(0.0),
    )


@pytest.fixture(scope="session")
def dense_population():
    """Oracle for solve_population: the same discretized fixed point,
    assembled as an N x N system from window_matrix and solved by LU."""

    def solve(model, r, regime, grid_n):
        grid = np.linspace(-1.0, 1.0, grid_n)
        lo, hi = np.maximum(grid - r, -1.0), np.minimum(grid + r, 1.0)
        rhs, _ = _model_rhs(model, regime, grid, r)
        jump_left, jump_right = _jumps(model, regime)
        W, wl0, wr0 = window_matrix(grid, lo, hi, grid_n // 2)
        scale = np.asarray(eval_func(model.delta, grid)) / (hi - lo)
        system = np.eye(grid_n) - scale[:, None] * W
        return np.linalg.solve(system, rhs + scale * (wl0 * jump_left + wr0 * jump_right))

    return solve


@pytest.fixture(scope="session")
def dense_lambda_table():
    """Oracle for build_lambda_table: (I - delta0*G) lambda = 1{a>=0} as a
    dense system, with the unit jump at a = 0 and the plateau beyond +A on
    the right-hand side."""

    def solve(delta0, A, grid_n):
        a = np.linspace(-A, A, grid_n)
        lo, hi = np.maximum(a - 1.0, -A), np.minimum(a + 1.0, A)
        W, wl0, _ = window_matrix(a, lo, hi, grid_n // 2)
        pad_right = np.maximum(a + 1.0 - A, 0.0)
        rhs = (a >= 0.0) + delta0 * (pad_right / (1.0 - delta0) - wl0) / 2.0
        return np.linalg.solve(np.eye(grid_n) - delta0 / 2.0 * W, rhs)

    return solve
