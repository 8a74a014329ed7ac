# rdspill before numpy: the package pins OpenBLAS to one thread only when it
# comes first, and the acceptance studies must run as `rdspill experiment` does
import rdspill  # noqa: F401  isort: skip
import numpy as np
import pytest

from rdspill.funcspace import ModelSpec, constant, eval_func, polynomial
from rdspill.quadrature import _locate


def _window_matrix_loop(z, lo, hi, i0):
    """Reference for quadrature.window_matrix, built one row at a time.

    When i0 is given, the two cells adjacent to node i0 use one-sided values
    there; their contributions to node i0 are reported separately in
    (wl0, wr0), so integral = W @ y + wl0*jump_left + wr0*jump_right.
    Returns (W, wl0, wr0) with W of shape (len(lo), len(z)).
    """
    z = np.asarray(z, dtype=float)
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    n = len(z)
    dz = z[1] - z[0]
    klo, tlo = _locate(lo, z[0], dz, n)
    khi, thi = _locate(hi, z[0], dz, n)
    W = np.zeros((len(lo), n))
    wl0 = np.zeros(len(lo))
    wr0 = np.zeros(len(lo))

    for row in range(len(lo)):
        a, ta = klo[row], tlo[row]
        b, tb = khi[row], thi[row]
        w = W[row]
        if a == b:
            # both endpoints inside one cell
            w_left = dz * ((tb - ta) - (tb * tb - ta * ta) / 2.0)
            w_right = dz * (tb * tb - ta * ta) / 2.0
            w[a] += w_left
            w[a + 1] += w_right
            if i0 is not None:
                if a == i0 - 1:
                    wl0[row] += w_right
                elif a == i0:
                    wr0[row] += w_left
            continue
        # partial left cell [lo, z_{a+1}]
        la, ra = dz * (1.0 - ta) ** 2 / 2.0, dz * (1.0 - ta * ta) / 2.0
        w[a] += la
        w[a + 1] += ra
        # full cells a+1 .. b-1 (composite trapezoid over nodes a+1 .. b)
        if b > a + 1:
            w[a + 1] += dz / 2.0
            w[b] += dz / 2.0
            if b > a + 2:
                w[a + 2:b] += dz
        # partial right cell [z_b, hi]
        lb = rb = 0.0
        if tb > 0.0:
            lb, rb = dz * (tb - tb * tb / 2.0), dz * tb * tb / 2.0
            w[b] += lb
            w[b + 1] += rb
        if i0 is None:
            continue
        # weight that the cell left of node i0 put on node i0
        c = i0 - 1
        if c == a:
            wl0[row] += ra
        elif a < c < b:
            wl0[row] += dz / 2.0
        elif c == b and tb > 0.0:
            wl0[row] += rb
        # weight that the cell right of node i0 put on node i0
        if i0 == a:
            wr0[row] += la
        elif a < i0 < b:
            wr0[row] += dz / 2.0
        elif i0 == b and tb > 0.0:
            wr0[row] += lb
    return W, wl0, wr0


@pytest.fixture(scope="session")
def window_matrix_loop():
    return _window_matrix_loop


def _lipschitz_constant(spec):
    """A certified (not necessarily tight) Lipschitz bound of a FuncSpec on
    [-1, 1], the oracle bound of the Lipschitz checks.

    polynomial: sum_k k*|a_k| bounds |f'| on [-1, 1]; sinusoid-sum: sum |A_j w_j|.
    """
    if spec.family == "constant":
        return 0.0
    if spec.family == "polynomial":
        return float(sum(k * abs(a) for k, a in enumerate(spec.coefficients)))
    _, amps, freqs = spec._sinusoid_parts()
    return float(np.sum(np.abs(amps * freqs)))


@pytest.fixture(scope="session")
def lipschitz_constant():
    return _lipschitz_constant


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


@pytest.fixture
def benchmark_model_doc():
    """The config document of benchmark_model, a fresh dict per test."""
    return {
        "m_plus": {"family": "polynomial", "coefficients": [1.0, 0.3]},
        "m_minus": {"family": "polynomial", "coefficients": [0.0, 0.2]},
        "delta": {"family": "constant", "coefficients": [0.4]},
        "gamma": {"family": "constant", "coefficients": [0.5]},
        "noise_sd": {"family": "constant", "coefficients": [0.1]},
    }


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
    assembled as an N x N system from the reference weight loop and solved
    by LU. Its right-hand side and jumps come from the model directly: the
    ramp nu is the clipped window's share of [0, 1], and Y jumps where m
    switches branch and, for a one-sided gamma, where gamma*nu(0) switches
    off."""

    def solve(model, r, grid_n):
        grid = np.linspace(-1.0, 1.0, grid_n)
        lo, hi = np.maximum(grid - r, -1.0), np.minimum(grid + r, 1.0)
        nu = (np.clip(hi, 0.0, None) - np.clip(lo, 0.0, None)) / (hi - lo)
        m = np.where(grid >= 0.0, eval_func(model.m_plus, grid), eval_func(model.m_minus, grid))
        rhs = m + model.gamma_at(grid) * nu
        jump_left = eval_func(model.m_minus, 0.0) - eval_func(model.m_plus, 0.0)
        jump_right = -eval_func(model.gamma, 0.0) * 0.5 if model.gamma_one_sided else 0.0
        W, wl0, wr0 = _window_matrix_loop(grid, lo, hi, grid_n // 2)
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
        W, wl0, _ = _window_matrix_loop(a, lo, hi, grid_n // 2)
        pad_right = np.maximum(a + 1.0 - A, 0.0)
        rhs = (a >= 0.0) + delta0 * (pad_right / (1.0 - delta0) - wl0) / 2.0
        return np.linalg.solve(np.eye(grid_n) - delta0 / 2.0 * W, rhs)

    return solve
